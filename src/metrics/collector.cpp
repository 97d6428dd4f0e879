#include "metrics/collector.h"

#include <cassert>

namespace sweb::metrics {

std::uint64_t Collector::open(std::string path, double size_bytes,
                              double start_time) {
  RequestRecord r;
  r.id = records_.size();
  r.path = std::move(path);
  r.size_bytes = size_bytes;
  r.start = start_time;
  records_.push_back(std::move(r));
  return records_.back().id;
}

RequestRecord& Collector::record(std::uint64_t id) {
  assert(id < records_.size());
  return records_[id];
}

void Collector::apply_timeout(double timeout_s, double experiment_end) {
  for (RequestRecord& r : records_) {
    if (r.outcome == Outcome::kCompleted &&
        r.response_time() > timeout_s) {
      r.outcome = Outcome::kTimedOut;
    } else if (r.outcome == Outcome::kPending &&
               experiment_end - r.start > timeout_s) {
      r.outcome = Outcome::kTimedOut;
    }
  }
}

Summary Collector::summarize() const {
  Summary s;
  Samples responses;
  for (const RequestRecord& r : records_) {
    ++s.total;
    switch (r.outcome) {
      case Outcome::kCompleted:
        ++s.completed;
        responses.add(r.response_time());
        break;
      case Outcome::kRefused: ++s.refused; break;
      case Outcome::kTimedOut: ++s.timed_out; break;
      case Outcome::kError: ++s.errors; break;
      case Outcome::kPending: ++s.pending; break;
    }
    if (r.redirected) ++s.redirected;
    if (r.cache_hit) ++s.cache_hits;
    if (r.remote_read) ++s.remote_reads;
  }
  if (!responses.empty()) {
    s.mean_response = responses.mean();
    s.p50_response = responses.percentile(50.0);
    s.p95_response = responses.percentile(95.0);
    s.max_response = responses.max();
  }
  return s;
}

PhaseBreakdown Collector::phase_breakdown() const {
  PhaseBreakdown b;
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.outcome != Outcome::kCompleted) continue;
    ++n;
    b.dns += r.t_dns;
    b.connect += r.t_connect;
    b.queue += r.t_queue;
    b.preprocess += r.t_preprocess;
    b.analysis += r.t_analysis;
    b.redirect += r.t_redirect;
    b.data += r.t_data;
    b.send += r.t_send;
    b.total += r.response_time();
  }
  if (n > 0) {
    const double inv = 1.0 / static_cast<double>(n);
    b.dns *= inv;
    b.connect *= inv;
    b.queue *= inv;
    b.preprocess *= inv;
    b.analysis *= inv;
    b.redirect *= inv;
    b.data *= inv;
    b.send *= inv;
    b.total *= inv;
  }
  return b;
}

double Collector::completed_rps(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.outcome == Outcome::kCompleted && r.finish >= t0 && r.finish <= t1) {
      ++n;
    }
  }
  return static_cast<double>(n) / (t1 - t0);
}

}  // namespace sweb::metrics
