// distributed_healing.cpp -- runs DASH as a distributed protocol on the
// round-based message-passing simulator and prints the per-deletion
// latency and message profile, demonstrating the Theorem 1 latency
// claims node-by-node rather than with a global engine.
#include <cmath>
#include <iostream>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "sim/distributed_dash.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  std::uint64_t n = 256, seed = 5, report_every = 32;
  dash::util::Options opt(
      "Distributed DASH on the synchronous round simulator");
  opt.add_uint("n", &n, "network size");
  opt.add_uint("seed", &seed, "RNG seed");
  opt.add_uint("report-every", &report_every,
               "print a progress row every k deletions");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;

  dash::util::Rng rng(seed);
  auto g0 = dash::graph::barabasi_albert(static_cast<std::size_t>(n), 2,
                                         rng);
  dash::sim::DistributedDashSim sim(std::move(g0), rng);

  std::cout << "distributed DASH: " << n << " nodes, max-degree attack, "
            << "synchronous rounds\n"
            << "  round 1 of each deletion: neighbors detect + locally "
               "compute the same RT (O(1) reconnection)\n"
            << "  rounds 2..: min-id flooding over the merged G'-tree\n\n";

  dash::util::Table table({"deletions", "alive", "last_prop_rounds",
                           "mean_prop_rounds", "total_messages",
                           "max_delta"});
  bool disconnected = false;
  dash::sim::run_max_degree_attack(
      sim, static_cast<std::size_t>(-1), [&](std::size_t deletions) {
        if (deletions % report_every == 0 ||
            sim.network().num_alive() <= 1) {
          table.begin_row()
              .cell(std::to_string(deletions))
              .cell(std::to_string(sim.network().num_alive()))
              .cell(std::to_string(sim.metrics().propagation_rounds.back()))
              .cell(sim.metrics().mean_propagation_rounds(), 2)
              .cell(std::to_string(sim.metrics().total_messages))
              .cell(std::to_string(sim.max_delta()));
        }
        // Fail fast: returning false aborts the schedule.
        disconnected = !dash::graph::is_connected(sim.network());
        return !disconnected;
      });
  if (disconnected) {
    std::cerr << "FATAL: network disconnected!\n";
    return 1;
  }
  table.print(std::cout);

  const double log2n = std::log2(static_cast<double>(n));
  std::cout << "\nsummary:\n"
            << "  reconnection latency:        1 round per deletion "
               "(constant, as proven)\n"
            << "  mean id-propagation latency: "
            << sim.metrics().mean_propagation_rounds() << " rounds (log2 n = "
            << log2n << ")\n"
            << "  max propagation latency:     "
            << sim.metrics().max_propagation_rounds() << " rounds\n"
            << "  max degree increase:         " << sim.max_delta()
            << " (bound " << 2.0 * log2n << ")\n"
            << "  max messages at one node:    "
            << sim.metrics().max_messages_per_node() << "\n";
  return 0;
}
