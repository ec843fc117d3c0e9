// sim_distributed.cpp -- distributed-protocol scaling study on the
// round-based simulator: reconnection latency (Theorem 1: O(1)),
// per-deletion id-propagation latency (amortized O(log n)), and total
// message volume, as graph size grows.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "exp/spec.h"
#include "graph/generators.h"
#include "sim/distributed_dash.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  std::uint64_t min_n = 64, max_n = 1024, instances = 5, seed = 99;
  std::string attack = "maxnode";
  dash::util::Options opt(
      "Distributed DASH on the round simulator: latency & messages");
  opt.add_uint("min-n", &min_n, "smallest graph size");
  opt.add_uint("max-n", &max_n, "largest graph size (doubling)");
  opt.add_uint("instances", &instances, "instances per size");
  opt.add_uint("seed", &seed, "base seed");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;
  std::vector<std::size_t> sizes;
  try {
    sizes = dash::exp::doubling_sizes(min_n, max_n, "ba", 2);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::cout << "\n== Distributed DASH scaling (round-based simulator, "
               "max-degree attack) ==\n\n";
  dash::util::Table table({"n", "reconnect_rounds_max", "prop_rounds_mean",
                           "prop_rounds_max", "log2n", "total_msgs",
                           "max_msgs_per_node", "max_id_changes",
                           "max_delta", "2log2n"});

  for (const std::size_t n : sizes) {
    double reconnect_max = 0, prop_mean = 0, prop_max = 0;
    double total_msgs = 0, max_msgs = 0, max_idchg = 0, max_delta = 0;
    for (std::uint64_t inst = 0; inst < instances; ++inst) {
      dash::util::Rng seeder(seed ^ (n * 0x9E3779B97F4A7C15ULL));
      dash::util::Rng rng = seeder.fork(inst + 1);
      auto g = dash::graph::barabasi_albert(n, 2, rng);
      dash::sim::DistributedDashSim sim(std::move(g), rng);
      dash::sim::run_max_degree_attack(sim);
      const auto& m = sim.metrics();
      for (auto r : m.reconnect_rounds) {
        reconnect_max = std::max(reconnect_max, double(r));
      }
      prop_mean = std::max(prop_mean, m.mean_propagation_rounds());
      prop_max = std::max(prop_max, double(m.max_propagation_rounds()));
      total_msgs += double(m.total_messages) / double(instances);
      max_msgs = std::max(max_msgs, double(m.max_messages_per_node()));
      max_idchg = std::max(max_idchg, double(m.max_id_changes()));
      max_delta = std::max(max_delta, double(sim.max_delta()));
    }
    const double log2n = std::log2(static_cast<double>(n));
    table.begin_row()
        .cell(std::to_string(n))
        .cell(reconnect_max, 0)
        .cell(prop_mean, 2)
        .cell(prop_max, 0)
        .cell(log2n, 2)
        .cell(total_msgs, 0)
        .cell(max_msgs, 0)
        .cell(max_idchg, 0)
        .cell(max_delta, 0)
        .cell(2 * log2n, 1);
    std::fprintf(stderr, "  done n=%zu\n", n);
  }
  table.print(std::cout);
  std::cout << "\nexpected: reconnect_rounds_max == 1 (O(1) claim); "
               "prop_rounds_mean grows ~log n;\nmax_delta <= 2log2n.\n";
  return 0;
}
