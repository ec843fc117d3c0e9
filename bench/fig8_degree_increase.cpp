// fig8_degree_increase.cpp -- reproduces Figure 8: "Maximum Degree
// increase: DASH vs other algorithms".
//
// Workload (Sec. 4.1/4.4): Barabasi-Albert graphs, NeighborOfMax attack
// (the strategy that consistently produced the highest degree increase),
// delete until the graph is gone, average the max degree increase over
// random instances, sweep graph size.
//
// Expected shape: GraphHeal and LineHeal grow steeply (superlogarithmic),
// BinaryTreeHeal in between, DASH and SDASH below 2 log2 n.
#include <cmath>
#include <iostream>

#include "figure_common.h"

int main(int argc, char** argv) {
  using dash::api::Metrics;
  const std::string title = "Figure 8: maximum degree increase vs graph size";
  dash::bench::FigureOptions fo;
  if (!fo.parse(argc, argv, title)) return fo.help ? 0 : 2;
  const int rc = dash::bench::run_strategy_sweep_figure(
      fo, title, "max_degree_increase", [](const Metrics& r) {
        return static_cast<double>(r.max_delta);
      });
  if (rc == 0) {
    std::cout << "\nreference: 2*log2(n) bound for DASH:\n";
    for (std::size_t n : fo.sizes()) {
      std::cout << "  n=" << n << "  2log2(n)=" << 2.0 * std::log2(double(n))
                << "\n";
    }
  }
  return rc;
}
