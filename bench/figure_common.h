// figure_common.h -- shared machinery for the figure-reproduction
// benches: size sweeps over Barabasi-Albert graphs, multi-instance
// averaging (Sec. 4.1 methodology), and paper-style table output.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "graph/generators.h"
#include "util/ascii_plot.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dash::bench {

struct FigureOptions {
  std::uint64_t instances = 10;  ///< paper uses 30; CI default is lighter
  std::uint64_t seed = 0x0DA5Bu;
  std::uint64_t min_n = 64;
  std::uint64_t max_n = 1024;
  std::uint64_t ba_edges = 2;  ///< BA attachment edges per node
  std::string attack = "neighborofmax";
  std::string csv_path;   ///< optional CSV dump
  std::string json_path;  ///< optional BENCH_*.json summary dump
  std::uint64_t threads = 0;
  bool help = false;  ///< set when --help was given

  /// Parse common flags, plus the bench's own through `extra`; returns
  /// false if the program should exit (check `help` to distinguish
  /// --help from a parse error). A size sweep the BA family cannot run
  /// is a parse error naming its flags, and an unknown --attack one
  /// naming the attack.
  bool parse(int argc, char** argv, const std::string& description,
             const std::function<void(dash::util::Options&)>& extra =
                 nullptr) {
    dash::util::Options opt(description);
    opt.add_uint("instances", &instances,
                 "random graph instances per data point (paper: 30)");
    opt.add_uint("seed", &seed, "base RNG seed");
    opt.add_uint("min-n", &min_n, "smallest graph size");
    opt.add_uint("max-n", &max_n, "largest graph size (doubling sweep)");
    opt.add_uint("ba-edges", &ba_edges, "BA attachment edges per node");
    opt.add_string("attack", &attack, "attack strategy");
    opt.add_string("csv", &csv_path, "optional path for CSV output");
    opt.add_string("json", &json_path,
                   "optional path for a BENCH_*.json metric summary");
    opt.add_uint("threads", &threads,
                 "worker threads (0 = hardware concurrency)");
    if (extra) extra(opt);
    if (!opt.parse(argc, argv)) {
      help = opt.help_requested();
      return false;
    }
    try {
      sizes();  // throws for a sweep the BA family cannot run
      api::Scenario::parse("targeted:" + attack);  // and for a bad attack
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
    return true;
  }

  /// The doubling sweep from --min-n to --max-n.
  std::vector<std::size_t> sizes() const {
    return exp::doubling_sizes(min_n, max_n, "ba",
                               static_cast<std::size_t>(ba_edges));
  }
};

/// One figure data point: per-strategy summary of a metric at size n.
using MetricFn = std::function<double(const api::Metrics&)>;

struct SeriesPoint {
  std::size_t n = 0;
  std::string strategy;
  dash::util::Summary summary;
};

/// Run the Sec. 4.1 methodology for one (n, strategy) cell on the
/// engine -- every instance plays `scenario` -- and return the
/// per-instance metrics. `configure` registers per-instance observers
/// (stretch tracking and the like); pass nullptr when none are needed.
/// When `json` is given, the cell's metrics land in a freshly begun
/// labelled group.
inline std::vector<api::Metrics> run_cell_results(
    const FigureOptions& fo, std::size_t n, const std::string& healer_spec,
    const api::Scenario& scenario, dash::util::ThreadPool& pool,
    const std::function<void(api::Network&)>& configure = nullptr,
    api::JsonSummarySink* json = nullptr,
    const std::string& strategy_label = "") {
  api::SuiteConfig cfg;
  const std::size_t ba_m = static_cast<std::size_t>(fo.ba_edges);
  cfg.make_graph = [n, ba_m](dash::util::Rng& rng) {
    return graph::barabasi_albert(n, ba_m, rng);
  };
  cfg.make_healer = api::healer_factory(healer_spec);
  cfg.scenario = scenario;
  cfg.configure = configure;
  cfg.instances = static_cast<std::size_t>(fo.instances);
  cfg.base_seed = fo.seed ^ (n * 0x9E3779B97F4A7C15ULL);
  if (json != nullptr) {
    json->begin_group({{"n", std::to_string(n)},
                       {"strategy", strategy_label.empty() ? healer_spec
                                                           : strategy_label},
                       {"scenario", scenario.spec()}});
    cfg.sinks.push_back(json);
  }
  return api::run_suite(cfg, pool);
}

/// run_cell_results + one-metric summary, the common figure cell.
inline dash::util::Summary run_cell(
    const FigureOptions& fo, std::size_t n, const std::string& healer_spec,
    const api::Scenario& scenario, const MetricFn& metric,
    dash::util::ThreadPool& pool,
    const std::function<void(api::Network&)>& configure = nullptr,
    api::JsonSummarySink* json = nullptr,
    const std::string& strategy_label = "") {
  return api::summarize_metric(
      run_cell_results(fo, n, healer_spec, scenario, pool, configure, json,
                       strategy_label),
      metric);
}

/// Print one figure: rows = sizes, one column per strategy (mean of the
/// metric, the same series the paper plots), plus an optional CSV dump
/// with mean/stddev/min/max per cell.
inline void print_figure(
    const std::string& title, const FigureOptions& fo,
    const std::vector<std::string>& strategy_names,
    const std::vector<SeriesPoint>& points,
    const std::string& metric_name) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "attack=" << fo.attack << " instances=" << fo.instances
            << " ba_edges=" << fo.ba_edges << " metric=" << metric_name
            << "\n\n";

  std::vector<std::string> header{"n"};
  header.insert(header.end(), strategy_names.begin(), strategy_names.end());
  dash::util::Table table(header);
  for (std::size_t n : fo.sizes()) {
    table.begin_row();
    table.cell(std::to_string(n));
    for (const auto& strat : strategy_names) {
      for (const auto& p : points) {
        if (p.n == n && p.strategy == strat) {
          table.cell(p.summary.mean, 2);
          break;
        }
      }
    }
  }
  table.print(std::cout);

  // Draw the figure itself, one marker per strategy.
  std::vector<std::string> x_labels;
  for (std::size_t n : fo.sizes()) x_labels.push_back(std::to_string(n));
  std::vector<dash::util::Series> plot_series;
  for (const auto& strat : strategy_names) {
    dash::util::Series s;
    s.label = strat;
    for (std::size_t n : fo.sizes()) {
      for (const auto& p : points) {
        if (p.n == n && p.strategy == strat) {
          s.y.push_back(p.summary.mean);
          break;
        }
      }
    }
    if (s.y.size() == x_labels.size()) plot_series.push_back(std::move(s));
  }
  if (!plot_series.empty() && x_labels.size() >= 2) {
    std::cout << '\n';
    dash::util::ascii_plot(std::cout, x_labels, plot_series);
  }

  if (!fo.csv_path.empty()) {
    std::ofstream out(fo.csv_path);
    dash::util::CsvWriter csv(
        out, {"n", "strategy", "metric", "mean", "stddev", "min", "max",
              "median", "instances"});
    for (const auto& p : points) {
      csv.write(p.n, p.strategy, metric_name, p.summary.mean,
                p.summary.stddev, p.summary.min, p.summary.max,
                p.summary.median, p.summary.count);
    }
    std::cout << "\nCSV written to " << fo.csv_path << "\n";
  }
}

/// Open the optional BENCH_*.json sink for a figure run; the document
/// is written once, when the last suite has fed its group.
struct JsonOutput {
  std::ofstream stream;
  std::optional<api::JsonSummarySink> sink;

  explicit JsonOutput(const std::string& path) {
    if (path.empty()) return;
    stream.open(path);
    sink.emplace(stream);
  }
  ~JsonOutput() {
    if (sink) sink->flush();
  }
  api::JsonSummarySink* get() { return sink ? &*sink : nullptr; }
};

/// The figure benches are grid runs: one ExperimentSpec over the
/// common flags (sizes x healers x one scenario), executed by the exp
/// runner. The derived cell seeds and group labels reproduce the
/// historical per-cell layout, so `--json` documents are unchanged --
/// and `dash_lab run --grid "$(canonical spec)"` recomputes any figure,
/// sharded across processes if desired.
inline exp::ExperimentSpec grid_spec(const FigureOptions& fo,
                                     std::string name,
                                     std::vector<std::string> healers,
                                     std::string scenario,
                                     std::size_t stretch_every = 0) {
  exp::ExperimentSpec spec;
  spec.name = std::move(name);
  spec.sizes = fo.sizes();
  spec.healers = std::move(healers);
  spec.scenarios = {std::move(scenario)};
  spec.instances = static_cast<std::size_t>(fo.instances);
  spec.seed = fo.seed;
  spec.ba_edges = static_cast<std::size_t>(fo.ba_edges);
  spec.stretch_every = stretch_every;
  return spec;
}

/// Execute a figure grid and render the table / plot / CSV / JSON
/// outputs from its cells.
inline int run_grid_figure(const std::string& title,
                           const FigureOptions& fo,
                           const exp::ExperimentSpec& spec,
                           const std::string& metric_name,
                           const MetricFn& metric) {
  try {
    std::vector<std::string> names;
    std::vector<SeriesPoint> points;
    std::vector<exp::ShardRecord> records;
    const std::size_t total = spec.enumerate().size();

    exp::RunnerOptions ropt;
    ropt.threads = static_cast<std::size_t>(fo.threads);
    ropt.on_cell = [&](const exp::CellResult& result) {
      SeriesPoint p;
      p.n = result.cell.n;
      p.strategy = result.cell.strategy_label;
      p.summary = api::summarize_metric(result.runs, metric);
      points.push_back(std::move(p));
      if (std::find(names.begin(), names.end(),
                    result.cell.strategy_label) == names.end()) {
        names.push_back(result.cell.strategy_label);
      }
      if (!fo.json_path.empty()) {
        records.push_back(exp::to_record(spec, result));
      }
      std::fprintf(stderr, "  [%zu/%zu] done n=%zu strategy=%s\n",
                   result.cell.index + 1, total, result.cell.n,
                   result.cell.strategy_label.c_str());
    };
    exp::run(spec, ropt);

    print_figure(title, fo, names, points, metric_name);
    if (!fo.json_path.empty()) {
      std::ofstream out(fo.json_path);
      out << exp::merged_document(spec, records);
      std::cout << "JSON summary written to " << fo.json_path << "\n";
    }
    std::fprintf(stderr, "grid: %s\n", spec.canonical().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}

/// Full driver shared by Fig. 8 / 9(a) / 9(b): sweep sizes x the paper's
/// five strategies, each cell one declarative scenario suite, and
/// report `metric`. `fo` holds the parsed flags.
inline int run_strategy_sweep_figure(const FigureOptions& fo,
                                     const std::string& title,
                                     const std::string& metric_name,
                                     const MetricFn& metric) {
  // The paper's schedule: the adversary deletes until the graph is
  // gone, no observers.
  const auto spec = grid_spec(fo, metric_name,
                              core::paper_strategy_specs(),
                              "targeted:" + fo.attack);
  return run_grid_figure(title, fo, spec, metric_name, metric);
}

}  // namespace dash::bench
