// quickstart.cpp -- the smallest complete use of the library:
// build a network, hand it to the api::Network engine, describe the
// workload as a declarative scenario, play it, and inspect the
// guarantees via observers.
//
//   $ ./quickstart [--n 256] [--healer dash] [--attack neighborofmax]
//   $ ./quickstart --scenario 'churn:0.3,0.1x200;batch:4x10'
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "api/api.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  std::uint64_t n = 256, seed = 42;
  std::string healer_name = "dash", attack_name = "neighborofmax";
  std::string scenario_spec;
  dash::util::Options opt("dashheal quickstart");
  opt.add_uint("n", &n, "network size");
  opt.add_uint("seed", &seed, "RNG seed");
  opt.add_string("healer", &healer_name,
                 "healing strategy (dash/sdash/graph/binarytree/line)");
  opt.add_string("attack", &attack_name,
                 "attack strategy (maxnode/neighborofmax/random/...)");
  opt.add_string("scenario", &scenario_spec,
                 "scenario spec (default: targeted:<attack>)");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;

  // 1. Build a power-law network (the paper's experimental substrate)
  //    and hand it to the engine together with a healer from the
  //    registry. The engine owns graph + healing state + strategy.
  std::unique_ptr<dash::core::HealingStrategy> healer;
  try {
    healer = dash::core::make_strategy(healer_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad healer: " << e.what() << "\n";
    return 2;
  }
  dash::util::Rng rng(seed);
  auto g = dash::graph::barabasi_albert(static_cast<std::size_t>(n), 2, rng);
  std::cout << "network: " << g.num_alive() << " nodes, " << g.num_edges()
            << " edges\n";
  dash::api::Network net(std::move(g), std::move(healer), rng);

  // 2. Plug in measurement: the full invariant battery after each round.
  dash::api::InvariantObserver invariants;
  net.add_observer(&invariants);

  // 3. Describe the workload declaratively. The default spec is the
  //    paper's full schedule -- the chosen adversary deletes until one
  //    node remains -- but any phase list works (try
  //    --scenario 'churn:0.3,0.1x200;batch:4x10').
  dash::api::Scenario scenario;
  try {
    scenario = dash::api::Scenario::parse(
        scenario_spec.empty() ? "targeted:" + attack_name : scenario_spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad scenario: " << e.what() << "\n";
    return 2;
  }
  std::cout << "scenario: " << scenario.spec()
            << ", healer: " << net.healer().name() << "\n";

  // 4. Play it; the engine heals after every deletion and all
  //    randomness comes from the seed stream.
  const dash::api::Metrics result = net.play(scenario, rng);

  // 5. Report.
  std::cout << "\nafter " << result.deletions << " deletions and "
            << result.joins << " joins:\n"
            << "  stayed connected:    "
            << (result.stayed_connected ? "yes" : "NO") << "\n"
            << "  invariants:          "
            << (result.violation.empty() ? "all hold"
                                         : result.violation)
            << "\n"
            << "  max degree increase: " << result.max_delta << " (bound "
            << 2.0 * std::log2(static_cast<double>(n)) << ")\n"
            << "  healing edges added: " << result.edges_added << "\n"
            << "  max id changes:      " << result.max_id_changes << "\n"
            << "  max messages/node:   " << result.max_messages << "\n";
  return result.stayed_connected && result.violation.empty() ? 0 : 1;
}
