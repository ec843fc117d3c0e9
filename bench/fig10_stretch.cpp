// fig10_stretch.cpp -- reproduces Figure 10: "Stretch for various
// algorithms".
//
// Workload (Sec. 4.6.3): the MaxNode attack (the most effective against
// stretch), Barabasi-Albert graphs, stretch = max over alive pairs of
// dist_healed / dist_original. Stretch is O(n*m) per sample, so this
// bench uses smaller sizes than Fig. 8 and deletes half the nodes,
// sampling every few rounds (configurable).
//
// Expected shape: the naive high-degree healers (GraphHeal) keep stretch
// near 1 (they add many shortcut edges); DASH alone drifts higher;
// SDASH stays close to the naive healers while also keeping degrees low.
#include <cmath>
#include <iostream>

#include "figure_common.h"

int main(int argc, char** argv) {
  using dash::api::Metrics;

  dash::bench::FigureOptions fo;
  fo.min_n = 32;
  fo.max_n = 256;
  fo.attack = "maxnode";
  fo.instances = 5;
  std::uint64_t sample_every = 4;
  if (!fo.parse(argc, argv,
                "Figure 10: stretch vs graph size (MaxNode attack)",
                [&](dash::util::Options& opt) {
                  opt.add_uint("sample-every", &sample_every,
                               "sample stretch every k-th deletion");
                })) {
    return fo.help ? 0 : 2;
  }

  // One grid over sizes x the paper's five strategies: delete half the
  // nodes (degree stays sane at that depth -- untilfrac keeps the spec
  // size-relative, so every n shares one scenario string), with
  // per-instance stretch sampling via the observer pipeline.
  const auto spec = dash::bench::grid_spec(
      fo, "max_stretch", dash::core::paper_strategy_specs(),
      "untilfrac:0.5," + fo.attack,
      static_cast<std::size_t>(sample_every));
  const int rc = dash::bench::run_grid_figure(
      "Figure 10: max stretch vs graph size (max over sampled rounds)",
      fo, spec, "max_stretch",
      [](const Metrics& r) { return r.max_stretch; });
  if (rc != 0) return rc;

  std::cout << "\nreference: log2(n):\n";
  for (std::size_t n : fo.sizes()) {
    std::cout << "  n=" << n << "  log2(n)=" << std::log2(double(n)) << "\n";
  }
  return 0;
}
