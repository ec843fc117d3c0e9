// infrastructure_network.cpp -- a hub-and-spoke infrastructure network
// (an airline-style route map: a few regional hubs, many spokes, a
// connected hub backbone) losing airports to closures.
//
// Shows the stretch/degree trade-off of Section 4.6: GraphHeal keeps
// routes short but overloads airports; DASH caps airport load but
// lengthens routes; SDASH balances both. Stretch here reads as "how
// many extra hops a passenger flies after re-routing".
#include <algorithm>
#include <iostream>

#include "api/api.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using dash::graph::Graph;
using dash::graph::NodeId;

/// Hub-and-spoke: `hubs` fully meshed regional hubs, each serving
/// `spokes` leaf airports.
Graph make_route_map(std::size_t hubs, std::size_t spokes) {
  Graph g(hubs + hubs * spokes);
  for (NodeId a = 0; a < hubs; ++a) {
    for (NodeId b = a + 1; b < hubs; ++b) g.add_edge(a, b);
  }
  NodeId next = static_cast<NodeId>(hubs);
  for (NodeId h = 0; h < hubs; ++h) {
    for (std::size_t s = 0; s < spokes; ++s) g.add_edge(h, next++);
  }
  return g;
}

struct Outcome {
  double max_stretch = 1.0;
  std::uint32_t max_delta = 0;
  bool connected = true;
};

Outcome run(const std::string& healer_name, std::size_t hubs,
            std::size_t spokes, std::size_t closures,
            std::uint64_t seed) {
  dash::api::Network net(make_route_map(hubs, spokes), healer_name, seed);
  auto& stretch = static_cast<dash::api::StretchObserver&>(
      net.add_observer(std::make_unique<dash::api::StretchObserver>()));

  // Close the `closures` busiest airports, never going below 2: the
  // whole workload as one declarative scenario.
  std::string spec = "floor:2;targeted:maxnode";
  if (closures > 0) spec += 'x' + std::to_string(closures);
  const dash::api::Metrics m =
      net.play(dash::api::Scenario::parse(spec), seed);

  Outcome out;
  out.connected = m.stayed_connected;
  out.max_stretch = std::max(1.0, stretch.max_stretch());
  out.max_delta = m.max_delta;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t hubs = 8, spokes = 24, closures = 12, seed = 11;
  dash::util::Options opt(
      "Airline route map: hub closures, re-routing policies compared");
  opt.add_uint("hubs", &hubs, "number of meshed hub airports");
  opt.add_uint("spokes", &spokes, "spoke airports per hub");
  opt.add_uint("closures", &closures, "airport closures to simulate");
  opt.add_uint("seed", &seed, "RNG seed");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;

  const std::size_t n = hubs + hubs * spokes;
  std::cout << "route map: " << hubs << " hubs x " << spokes
            << " spokes = " << n << " airports; closing " << closures
            << " busiest airports\n\n";

  dash::util::Table table({"re-routing", "stayed_connected", "max_stretch",
                           "max_extra_routes_per_airport"});
  for (const char* healer : {"graph", "line", "binarytree", "dash",
                             "sdash"}) {
    const auto o = run(healer, static_cast<std::size_t>(hubs),
                       static_cast<std::size_t>(spokes),
                       static_cast<std::size_t>(closures), seed);
    table.begin_row()
        .cell(healer)
        .cell(o.connected ? "yes" : "NO")
        .cell(o.max_stretch, 2)
        .cell(std::to_string(o.max_delta));
  }
  table.print(std::cout);
  std::cout << "\nreading: max_stretch = worst hop inflation for any "
               "surviving city pair;\nmax_extra_routes = new routes the "
               "busiest airport had to absorb.\nSDASH keeps both small; "
               "GraphHeal minimizes stretch by overloading airports;\n"
               "DASH caps load but can lengthen routes.\n";
  return 0;
}
