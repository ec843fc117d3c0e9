// ablation_surrogate_slack.cpp -- extension experiment probing the
// paper's open problem ("can we provably ensure shortest paths do not
// increase by too much?"): loosen SDASH's surrogate trigger by a slack
// term and chart the resulting stretch/degree trade-off.
//
//   slack 0  = the paper's Algorithm 3;
//   slack s  = surrogate when delta(w) + |S| - 1 <= delta(m) + s.
//
// Expectation: stretch falls monotonically with slack (more stars =
// more deleted-node stand-ins = shorter detours) while the max degree
// increase rises by at most ~s above DASH's level.
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
  if (!fo.parse(argc, argv,
                "Extension ablation: SDASH surrogate slack vs "
                "stretch/degree trade-off")) {
    return fo.help ? 0 : 2;
  }

  dash::util::ThreadPool pool(static_cast<std::size_t>(fo.threads));
  const std::vector<std::string> keys{"dash", "sdash", "sdash:2",
                                      "sdash:4", "sdash:8"};
  std::vector<std::string> names;
  for (const auto& k : keys) {
    names.push_back(dash::core::make_strategy(k)->name());
  }

  // Stretch tracking is an observer now; each instance gets its own.
  const auto track_stretch = [](dash::api::Network& net) {
    net.add_observer(std::make_unique<dash::api::StretchObserver>(4));
  };

  dash::bench::JsonOutput json(fo.json_path);
  std::vector<dash::bench::SeriesPoint> stretch_points, delta_points;
  for (std::size_t n : fo.sizes()) {
    const auto scenario = dash::api::Scenario::parse(
        "targeted:" + fo.attack + "x" + std::to_string(n / 2));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      // One suite per cell; both metrics summarize the same runs.
      const auto results = dash::bench::run_cell_results(
          fo, n, keys[i], scenario, pool, track_stretch, json.get(),
          names[i]);

      dash::bench::SeriesPoint sp;
      sp.n = n;
      sp.strategy = names[i];
      sp.summary = dash::api::summarize_metric(
          results, [](const Metrics& r) { return r.max_stretch; });
      stretch_points.push_back(sp);

      dash::bench::SeriesPoint dp;
      dp.n = n;
      dp.strategy = names[i];
      dp.summary = dash::api::summarize_metric(
          results, [](const Metrics& r) {
            return static_cast<double>(r.max_delta);
          });
      delta_points.push_back(dp);
    }
    std::fprintf(stderr, "  done n=%zu\n", n);
  }

  dash::bench::print_figure(
      "Extension: surrogate slack vs max stretch (MaxNode attack)", fo,
      names, stretch_points, "max_stretch");
  dash::bench::print_figure(
      "Extension: surrogate slack vs max degree increase", fo, names,
      delta_points, "max_degree_increase");
  std::cout << "\nreading: increasing slack buys stretch reduction for a "
               "bounded degree cost;\nslack=0 is the paper's SDASH.\n";
  return 0;
}
