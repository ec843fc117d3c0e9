// sweep_cli.cpp -- general experiment driver: pick any graph family,
// scenario, healer set and metric from the command line, sweep sizes,
// and emit the series as a table, optional CSV, and optional
// BENCH_*.json summary. This is the "run your own figure" entry point
// for downstream users.
//
// Healers, attacks and scenario phases are resolved through the
// registries, so anything registered on core::healer_registry() /
// attack::attack_registry() / api::scenario_phase_registry() (including
// parameterized specs like "capped:2" or "sdash:4") works here; --help
// lists the registered spellings.
//
//   $ ./sweep_cli --family ba --attack maxnode --metric stretch
//       --healers dash,sdash,graph --max-n 128
//   $ ./sweep_cli --scenario 'churn:0.4,0.4x300;batch:8' --metric max_delta
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "api/api.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using dash::api::Metrics;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double extract(const Metrics& r, const std::string& metric) {
  if (metric == "max_delta") return static_cast<double>(r.max_delta);
  if (metric == "id_changes") return static_cast<double>(r.max_id_changes);
  if (metric == "messages") return static_cast<double>(r.max_messages);
  if (metric == "messages_sent")
    return static_cast<double>(r.max_messages_sent);
  if (metric == "edges_added") return static_cast<double>(r.edges_added);
  if (metric == "stretch") return r.max_stretch;
  if (metric == "surrogates")
    return static_cast<double>(r.surrogate_heals);
  if (metric == "joins") return static_cast<double>(r.joins);
  if (metric == "deletions") return static_cast<double>(r.deletions);
  throw std::invalid_argument(
      "unknown metric: " + metric +
      " (max_delta/id_changes/messages/messages_sent/edges_added/"
      "stretch/surrogates/joins/deletions)");
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += "/";
    out += n;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string family = "ba", attack = "neighborofmax";
  std::string healers = "graph,line,binarytree,dash,sdash";
  std::string metric = "max_delta", csv_path, json_path, scenario_spec;
  std::uint64_t instances = 10, seed = 0xDA5B, min_n = 64, max_n = 512;
  std::uint64_t ba_edges = 2, deletions = 0, threads = 0;
  bool print_grid = false;

  dash::util::Options opt("dashheal sweep driver");
  opt.add_string("family", &family,
                 "graph family (" + joined(dash::exp::family_names()) + ")");
  opt.add_string("attack", &attack,
                 "attack (" + joined(dash::attack::attack_names()) + ")");
  opt.add_string("healers", &healers,
                 "comma-separated healing strategies (" +
                     joined(dash::core::strategy_names()) + ")");
  opt.add_string("scenario", &scenario_spec,
                 "scenario spec, phases: " +
                     joined(dash::api::scenario_phase_registry().names()) +
                     " (default: targeted:<attack>)");
  opt.add_string("metric", &metric,
                 "metric (max_delta/id_changes/messages/messages_sent/"
                 "edges_added/stretch/surrogates/joins/deletions)");
  opt.add_uint("instances", &instances, "instances per data point");
  opt.add_uint("seed", &seed, "base RNG seed");
  opt.add_uint("min-n", &min_n, "smallest size");
  opt.add_uint("max-n", &max_n, "largest size (doubling sweep)");
  opt.add_uint("ba-edges", &ba_edges, "BA attachment edges");
  opt.add_uint("deletions", &deletions,
               "deletions per run (0 = until one node remains; ignored "
               "with --scenario)");
  opt.add_string("csv", &csv_path, "optional CSV output path");
  opt.add_string("json", &json_path,
                 "optional BENCH_*.json summary output path");
  opt.add_uint("threads", &threads, "worker threads");
  opt.add_flag("print-grid", &print_grid,
               "print the sweep's canonical one-line ExperimentSpec "
               "(hand it to dash_lab) and exit");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;

  try {
    extract(Metrics{}, metric);  // fail fast on an unknown metric name

    // The workload: an explicit scenario wins; otherwise the classic
    // targeted schedule (with the stretch metric's delete-half default,
    // size-relative via untilfrac).
    std::string scenario = scenario_spec;
    if (scenario.empty()) {
      if (metric == "stretch" && deletions == 0) {
        scenario = "untilfrac:0.5," + attack;
      } else if (deletions > 0) {
        scenario = "targeted:" + attack + "x" + std::to_string(deletions);
      } else {
        scenario = "targeted:" + attack;
      }
    }

    // The whole sweep is one ExperimentSpec grid; the same spec drives
    // dash_lab's sharded / multi-process runs.
    dash::exp::ExperimentSpec spec;
    spec.name = "sweep";
    spec.families = {family};
    spec.sizes = dash::exp::doubling_sizes(
        min_n, max_n, family, static_cast<std::size_t>(ba_edges));
    spec.healers = split_csv(healers);
    spec.scenarios = {dash::api::Scenario::parse(scenario).spec()};
    spec.instances = static_cast<std::size_t>(instances);
    spec.seed = seed;
    spec.ba_edges = static_cast<std::size_t>(ba_edges);
    spec.stretch_every = metric == "stretch" ? 4 : 0;
    spec.labels = "spec";  // groups carry the raw healer spellings
    if (print_grid) {
      std::cout << spec.canonical() << "\n";
      return 0;
    }

    std::vector<std::string> header{"n"};
    header.insert(header.end(), spec.healers.begin(), spec.healers.end());
    dash::util::Table table(header);

    std::ostringstream csv_buf;
    dash::util::CsvWriter csv(csv_buf, {"n", "healer", "metric", "mean",
                                        "stddev", "min", "max"});

    std::vector<dash::exp::ShardRecord> records;
    std::size_t current_n = 0;
    dash::exp::RunnerOptions ropt;
    ropt.threads = static_cast<std::size_t>(threads);
    ropt.on_cell = [&](const dash::exp::CellResult& result) {
      if (result.cell.n != current_n) {
        current_n = result.cell.n;
        table.begin_row().cell(std::to_string(current_n));
        std::fprintf(stderr, "  n=%zu\n", current_n);
      }
      const auto summary = dash::api::summarize_metric(
          result.runs,
          [&metric](const Metrics& r) { return extract(r, metric); });
      table.cell(summary.mean, 2);
      csv.write(result.cell.n, result.cell.healer, metric, summary.mean,
                summary.stddev, summary.min, summary.max);
      if (!json_path.empty()) {
        records.push_back(dash::exp::to_record(spec, result));
      }
    };
    dash::exp::run(spec, ropt);

    std::cout << "\n== sweep: family=" << family << " scenario="
              << spec.scenarios[0] << " metric=" << metric
              << " instances=" << instances << " ==\n\n";
    table.print(std::cout);
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      out << csv_buf.str();
      std::cout << "\nCSV written to " << csv_path << "\n";
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << dash::exp::merged_document(spec, records);
      std::cout << "\nJSON summary written to " << json_path << "\n";
    }
    std::fprintf(stderr, "grid: %s\n", spec.canonical().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
