// Open-loop vs closed-loop load generation (methodology study).
//
// The paper's tests are open-loop ("at each second a constant number of
// requests are launched") while period benchmarking tools (WebStone) were
// closed-loop (N users, think time). The same saturated server looks very
// different through the two lenses — a classic measurement pitfall this
// bench makes concrete on the 1-node Meiko serving 1.5 MB files
// (capacity ~3 rps).
#include "bench_common.h"

#include <string>

#include "workload/closed_loop.h"

namespace {

using namespace sweb;

workload::ExperimentSpec base_spec() {
  workload::ExperimentSpec spec = bench::meiko_spec(1, 1536 * 1024, 64);
  spec.policy = "round-robin";  // one node: scheduling is moot
  return spec;
}

}  // namespace

int main() {
  using namespace sweb;
  bench::print_header(
      "Open vs closed loop", "The same saturated server, two lenses",
      "1-node Meiko, 1.5 MB files (capacity ~3 rps). Open loop: fixed "
      "arrival rate for 30 s. Closed loop: N virtual users with 1 s mean "
      "think time for 60 s.");

  std::printf("open loop (fixed arrival rate):\n");
  metrics::Table open_table(
      {"offered rps", "achieved rps", "mean resp", "p95 resp", "drop"});
  for (double rps : {2.0, 4.0, 8.0, 16.0}) {
    workload::ExperimentSpec spec = base_spec();
    spec.burst.rps = rps;
    spec.burst.duration_s = 30.0;
    const auto r = workload::run_experiment(spec);
    open_table.add_row({metrics::fmt(rps, 0),
                        metrics::fmt(r.achieved_rps, 1),
                        bench::seconds_cell(r.summary.mean_response) + " s",
                        bench::seconds_cell(r.summary.p95_response) + " s",
                        metrics::fmt_pct(r.summary.drop_rate())});
  }
  std::printf("%s\n", open_table.render().c_str());

  std::printf("closed loop (N users, 1 s think):\n");
  metrics::Table closed_table(
      {"users", "throughput rps", "mean resp", "p95 resp", "drop"});
  for (int users : {2, 8, 24, 64}) {
    workload::ClosedLoopSpec loop;
    loop.num_clients = users;
    loop.think_mean_s = 1.0;
    loop.duration_s = 60.0;
    const auto r = workload::run_closed_loop(base_spec(), loop);
    closed_table.add_row({std::to_string(users),
                          metrics::fmt(r.throughput_rps, 1),
                          bench::seconds_cell(r.mean_response) + " s",
                          bench::seconds_cell(r.summary.p95_response) + " s",
                          metrics::fmt_pct(r.summary.drop_rate())});
  }
  std::printf("%s", closed_table.render().c_str());
  bench::print_note(
      "expected shape: past ~3 rps the open loop reports runaway latency "
      "and mass drops at a pinned 'offered' rate, while the closed loop "
      "self-throttles — throughput plateaus at capacity, latency grows "
      "only with the user population, and almost nothing drops.");
  return 0;
}
