// fig9a_id_changes.cpp -- reproduces Figure 9(a): "ID changes for
// nodes": the maximum number of times any node's component id is
// rewritten, per healing strategy, as graph size grows.
//
// Expected shape: below ~log n for every strategy (record-breaking
// argument, Lemma 8), mildly increasing with n.
#include <cmath>
#include <iostream>

#include "figure_common.h"

int main(int argc, char** argv) {
  using dash::api::Metrics;
  const std::string title =
      "Figure 9(a): max ID changes per node vs graph size";
  dash::bench::FigureOptions fo;
  if (!fo.parse(argc, argv, title)) return fo.help ? 0 : 2;
  const int rc = dash::bench::run_strategy_sweep_figure(
      fo, title, "max_id_changes", [](const Metrics& r) {
        return static_cast<double>(r.max_id_changes);
      });
  if (rc == 0) {
    std::cout << "\nreference: 2*ln(n) record-breaking bound:\n";
    for (std::size_t n : fo.sizes()) {
      std::cout << "  n=" << n << "  2ln(n)=" << 2.0 * std::log(double(n))
                << "\n";
    }
  }
  return rc;
}
