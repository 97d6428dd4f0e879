// Whole-system invariants under randomized load and fault injection.
//
// Whatever the policy, load level, reassignment mechanism, or mid-run node
// churn, after the system drains:
//   * every opened request reaches a terminal state (no leaks),
//   * every connection slot is returned (active counts back to zero),
//   * every byte of reserved memory is released,
//   * no flow is left in the network,
//   * redirected <= 1 reassignment per request.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "core/server.h"
#include "fs/docbase.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace sweb {
namespace {

struct Scenario {
  const char* name;
  const char* policy;
  bool meiko;
  bool forward;
  bool churn;
  double rps;
  std::uint64_t file_size;
};

// Gives the scenario a short, stable printed form: CTest appends GetParam()
// to the test name, and gtest's default byte dump of this struct holds
// pointers that differ from one build to the next.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << sc.policy << ' ' << sc.rps << "rps";
}

class SystemInvariants : public ::testing::TestWithParam<Scenario> {};

TEST_P(SystemInvariants, DrainLeavesNoResidue) {
  const Scenario& sc = GetParam();
  sim::Simulation sim;
  util::Rng rng(1234);
  cluster::Cluster clu(sim, sc.meiko ? cluster::meiko_config(4)
                                     : cluster::now_config(4));
  fs::Docbase docs =
      fs::make_uniform(48, sc.file_size, 4, fs::Placement::kRoundRobin);
  std::vector<cluster::ClientLinkId> links;
  for (int d = 0; d < 4; ++d) {
    links.push_back(clu.add_client_link("lan" + std::to_string(d), 3e6,
                                        1.5e-3));
  }
  core::ServerParams params;
  if (sc.forward) {
    params.reassignment = core::ServerParams::Reassignment::kForward;
  }
  core::SwebServer server(clu, docs, core::Oracle::builtin(),
                          core::make_policy(sc.policy), params, rng);
  server.start();

  // Offered load: sc.rps for 20 s.
  const int total = static_cast<int>(sc.rps * 20);
  for (int i = 0; i < total; ++i) {
    const double at = static_cast<double>(i) / sc.rps;
    const auto link = links[rng.index(links.size())];
    const std::string path = docs.documents()[rng.index(docs.size())].path;
    sim.schedule_at(at, [&server, link, path] {
      server.client_request(link, path);
    });
  }
  if (sc.churn) {
    sim.schedule_at(5.0, [&server] { server.set_node_available(1, false); });
    sim.schedule_at(12.0, [&server] { server.set_node_available(1, true); });
    sim.schedule_at(8.0, [&server] { server.set_node_available(3, false); });
    sim.schedule_at(15.0, [&server] { server.set_node_available(3, true); });
  }
  sim.run_until(500.0);
  server.collector().apply_timeout(60.0, sim.now());

  // --- terminal states ---
  const metrics::Summary s = server.collector().summarize();
  EXPECT_EQ(s.total, static_cast<std::size_t>(total));
  EXPECT_EQ(s.completed + s.refused + s.timed_out + s.errors + s.pending,
            s.total);
  // Nothing may still be pending after the drain unless a node stayed dead
  // (here churn always revives): pendings would be stuck requests.
  EXPECT_EQ(s.pending, 0u);

  // --- resource conservation ---
  for (int n = 0; n < clu.num_nodes(); ++n) {
    EXPECT_EQ(server.active_connections(n), 0) << "node " << n;
    EXPECT_DOUBLE_EQ(clu.committed_bytes(n), 0.0) << "node " << n;
  }
  EXPECT_EQ(clu.network().active_flow_count(), 0u);

  // --- per-request sanity ---
  for (const metrics::RequestRecord& rec : server.collector().records()) {
    if (rec.outcome == metrics::Outcome::kCompleted) {
      EXPECT_GE(rec.finish, rec.start);
      EXPECT_GE(rec.final_node, 0);
      EXPECT_LT(rec.final_node, clu.num_nodes());
      const double phase_sum = rec.t_dns + rec.t_connect + rec.t_queue +
                               rec.t_preprocess + rec.t_analysis +
                               rec.t_redirect + rec.t_data + rec.t_send;
      // Phases never exceed the response time (the remainder is the final
      // propagation leg and event rounding).
      EXPECT_LE(phase_sum, rec.response_time() + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SystemInvariants,
    ::testing::Values(
        Scenario{"sweb_meiko_small", "sweb", true, false, false, 20, 64 * 1024},
        Scenario{"sweb_meiko_large", "sweb", true, false, false, 8,
                 1536 * 1024},
        Scenario{"rr_meiko", "round-robin", true, false, false, 20, 64 * 1024},
        Scenario{"fl_meiko", "file-locality", true, false, false, 20,
                 64 * 1024},
        Scenario{"cpu_meiko", "cpu-only", true, false, false, 20, 64 * 1024},
        Scenario{"sweb_forward", "sweb", true, true, false, 16, 64 * 1024},
        Scenario{"fl_forward_large", "file-locality", true, true, false, 6,
                 1536 * 1024},
        Scenario{"sweb_now", "sweb", false, false, false, 6, 64 * 1024},
        Scenario{"sweb_churn", "sweb", true, false, true, 16, 64 * 1024},
        Scenario{"fl_churn_forward", "file-locality", true, true, true, 12,
                 64 * 1024},
        Scenario{"overload_single_link", "sweb", true, false, false, 40,
                 256 * 1024}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sweb
