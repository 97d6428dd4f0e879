#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace sweb::obs {

double SpanTracer::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanTracer::add_span(TraceSpan span) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanTracer::add_instant(std::string name, std::string category,
                             double ts_s, std::int64_t pid,
                             std::int64_t tid) {
  TraceSpan s;
  s.name = std::move(name);
  s.category = std::move(category);
  s.ts_s = ts_s;
  s.dur_s = -1.0;
  s.pid = pid;
  s.tid = tid;
  add_span(std::move(s));
}

void SpanTracer::set_process_name(std::int64_t pid, std::string name) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  process_names_.emplace_back(pid, std::move(name));
}

std::size_t SpanTracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

namespace {

/// trace_event timestamps are microseconds; emit fixed-point (never
/// scientific — "1.5e+06" is valid JSON but some trace viewers choke) with
/// nanosecond precision, trailing zeros trimmed.
[[nodiscard]] std::string micros(double seconds) {
  const double us = std::round(seconds * 1e6 * 1000.0) / 1000.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  std::string s = buf;
  while (s.back() == '0') s.pop_back();
  if (s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

void SpanTracer::write_chrome_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const auto& [pid, name] : process_names_) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(std::int64_t{0});
    w.key("args").begin_object().key("name").value(name).end_object();
    w.end_object();
  }
  for (const TraceSpan& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.category.empty() ? "sweb" : s.category);
    if (s.dur_s < 0.0) {
      w.key("ph").value("i");
      w.key("s").value("t");  // instant scoped to its thread
    } else {
      w.key("ph").value("X");
      w.key("dur").raw(micros(s.dur_s));
    }
    w.key("ts").raw(micros(s.ts_s));
    w.key("pid").value(s.pid);
    w.key("tid").value(s.tid);
    if (!s.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [k, v] : s.args) w.key(k).value(v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str();
}

bool SpanTracer::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_json(out);
  return static_cast<bool>(out);
}

std::optional<std::string> merge_chrome_traces(
    const std::vector<std::string>& docs) {
  JsonValue merged;
  merged.type = JsonValue::Type::kObject;
  JsonValue unit;
  unit.type = JsonValue::Type::kString;
  unit.string = "ms";
  merged.members.emplace_back("displayTimeUnit", std::move(unit));
  JsonValue events;
  events.type = JsonValue::Type::kArray;

  // Every node's file re-announces the same metadata (process_name per
  // pid); keep the first occurrence of each identical "M" event.
  std::set<std::string> seen_metadata;
  for (const std::string& doc : docs) {
    std::optional<JsonValue> parsed = json_parse(doc);
    if (!parsed.has_value()) return std::nullopt;
    const JsonValue* trace_events = parsed->find("traceEvents");
    if (trace_events == nullptr || !trace_events->is_array()) {
      return std::nullopt;
    }
    for (const JsonValue& event : trace_events->array) {
      const JsonValue* ph = event.find("ph");
      if (ph != nullptr && ph->type == JsonValue::Type::kString &&
          ph->string == "M") {
        if (!seen_metadata.insert(json_serialize(event)).second) continue;
      }
      events.array.push_back(event);
    }
  }
  merged.members.emplace_back("traceEvents", std::move(events));
  return json_serialize(merged);
}

bool merge_chrome_trace_files(const std::vector<std::string>& paths,
                              const std::string& out_path) {
  std::vector<std::string> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    docs.push_back(std::move(buffer).str());
  }
  const std::optional<std::string> merged = merge_chrome_traces(docs);
  if (!merged.has_value()) return false;
  std::ofstream out(out_path);
  if (!out) return false;
  out << *merged;
  return static_cast<bool>(out);
}

}  // namespace sweb::obs
