// dash_lab.cpp -- unified experiment-orchestration CLI over the exp
// layer: describe a sweep once (spec file or one-line grid), then run
// it in one process on N threads, or shard-by-shard on different
// machines, and get the single BENCH_*.json document a sequential run
// would have written -- byte-identical, whichever path produced it.
//
//   dash_lab list-cells --grid 'n=64|128 healer=dash|sdash scenario=paper-churn'
//   dash_lab run  --spec sweep.spec --threads 4 --json BENCH_sweep.json
//   dash_lab run  --spec sweep.spec --shard 0/2 --out shards/s0.jsonl
//   dash_lab run  --spec sweep.spec --shard 1/2 --out shards/s1.jsonl
//   dash_lab merge --spec sweep.spec --json BENCH_sweep.json
//       --inputs shards/s0.jsonl,shards/s1.jsonl
//
// Shard record files double as resume manifests: re-running a shard
// with --resume skips every cell already recorded in its --out file,
// so an interrupted sweep finishes from where it stopped instead of
// recomputing.
//
// The replay verbs capture and re-execute single runs:
//
//   dash_lab record --healer dash --scenario paper-churn --n 128
//       --seed 7 --trace run.trace
//   dash_lab replay --trace run.trace            # bit-identity check
//   dash_lab replay --trace run.trace --healer none --lenient --invariants
//   dash_lab fuzz   --trace run.trace --mutants 50
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.h"
#include "api/serve_bench.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "hunt/hunt.h"
#include "replay/fuzz.h"
#include "replay/play.h"
#include "replay/recorder.h"
#include "replay/shrink.h"
#include "replay/trace.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/registry.h"

namespace {

using dash::exp::Cell;
using dash::exp::ExperimentSpec;

struct LabOptions {
  std::string spec_path;   ///< --spec FILE
  std::string grid;        ///< --grid "one-line spec"
  std::string shard;       ///< --shard I/N
  std::string out;         ///< --out shard record file
  std::string json;        ///< --json merged document path
  std::string inputs;      ///< --inputs comma-separated shard files
  std::uint64_t threads = 0;
  bool resume = false;
  bool quiet = false;
  // run/merge rows output
  std::string rows;         ///< --rows per-round rows CSV path
  std::string rows_inputs;  ///< --rows-inputs per-shard rows files
  // record/replay/fuzz
  std::string trace;        ///< --trace file
  std::string healer;       ///< --healer spec (record default: dash)
  std::string scenario = "paper-churn";  ///< --scenario spec (record)
  std::string family = "ba";             ///< --family (record)
  std::uint64_t n = 128;                 ///< --n initial size (record)
  std::uint64_t ba_edges = 2;            ///< --ba-edges (record)
  std::uint64_t seed = 1;                ///< --seed (record/fuzz)
  std::uint64_t mutants = 20;            ///< --mutants (fuzz)
  std::string healers;                   ///< --healers a,b,c (fuzz)
  std::string repro_dir;                 ///< --repro-dir (fuzz)
  bool lenient = false;                  ///< --lenient (replay)
  bool invariants = false;               ///< --invariants (replay/record)
  bool no_shrink = false;                ///< --no-shrink (fuzz)
  // serve-bench
  std::string readers = "1,2,4,8";       ///< serve-bench --readers
  std::uint64_t distance_every = 16;     ///< serve-bench --distance-every
  bool verify = false;                   ///< serve-bench --verify
  // hunt
  std::string name;                      ///< hunt --name
  std::string state_dir = "dash_hunt";   ///< hunt --state-dir
  std::string strategy = "evolve";       ///< hunt --strategy
  std::string fitness = "delta";         ///< hunt --fitness
  std::string trace_dir;                 ///< hunt --trace-dir
  std::uint64_t budget = 200;            ///< hunt --budget
  std::uint64_t top = 3;                 ///< hunt --top
  std::uint64_t instances = 2;           ///< hunt --instances
  std::uint64_t stretch_every = 0;       ///< hunt --stretch-every
  // list-cells
  bool cells_json = false;               ///< list-cells --json
};

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: dash_lab "
      "<run|merge|list-cells|serve-bench|record|replay|fuzz|hunt> "
      "[options]\n"
      "\n"
      "subcommands:\n"
      "  run         execute the grid in this process on --threads N\n"
      "              workers: all of it, or one shard (--shard I/N\n"
      "              --out FILE) for merge, the path across machines\n"
      "  merge       reassemble shard record files (--inputs a,b,...)\n"
      "              into the single BENCH_*.json document\n"
      "  list-cells  print the grid's deterministic cell enumeration\n"
      "  serve-bench measure the concurrent serving engine: N reader\n"
      "              threads answer queries from pinned epoch\n"
      "              snapshots while a churn+heal scenario mutates the\n"
      "              network; reports reads/s and p50/p99/p999, exits\n"
      "              1 on any torn read or determinism violation\n"
      "  record      play one scenario, capturing every event as a\n"
      "              replayable trace (--trace FILE)\n"
      "  replay      re-execute a trace bit-identically, or leniently\n"
      "              under another healer (--healer, --lenient,\n"
      "              --invariants); exit 1 on divergence/violation\n"
      "  fuzz        mutate a golden trace and replay every mutant\n"
      "              against every healer; failing mutants shrink to\n"
      "              repro traces (exit 1 when any healer violated)\n"
      "  hunt        search for worst-case attack schedules against a\n"
      "              healer (or healer list): random / greedy / evolve\n"
      "              over typed attack moves, scored by real runs;\n"
      "              emits a HUNT_*.json leaderboard and the best-k\n"
      "              schedules as replayable traces\n"
      "\n"
      "pass --help after a subcommand for its options\n");
  return to == stdout ? 0 : 2;
}

/// The experiment, from --spec or --grid (exactly one required).
ExperimentSpec load_spec(const LabOptions& opt) {
  if (opt.spec_path.empty() == opt.grid.empty()) {
    throw std::invalid_argument(
        "need exactly one of --spec <file> or --grid '<one-line spec>'");
  }
  return opt.spec_path.empty() ? ExperimentSpec::parse_line(opt.grid)
                               : ExperimentSpec::parse_file(opt.spec_path);
}

void parse_shard(const std::string& text, dash::exp::ShardOptions* out) {
  const auto slash = text.find('/');
  bool ok = slash != std::string::npos && slash > 0 &&
            slash + 1 < text.size();
  if (ok) {
    const char* base = text.data();
    const auto [iend, iec] =
        std::from_chars(base, base + slash, out->index);
    const auto [cend, cec] =
        std::from_chars(base + slash + 1, base + text.size(), out->count);
    ok = iec == std::errc{} && iend == base + slash &&
         cec == std::errc{} && cend == base + text.size();
  }
  if (!ok || out->count == 0 || out->index >= out->count) {
    throw std::invalid_argument("bad --shard '" + text +
                                "' (expected I/N with 0 <= I < N)");
  }
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Write the merged document to --json, or stdout without it.
void emit_document(const LabOptions& opt, const std::string& doc) {
  if (opt.json.empty()) {
    std::cout << doc;
    return;
  }
  std::ofstream out(opt.json);
  if (!out) {
    throw std::runtime_error("cannot open --json path '" + opt.json + "'");
  }
  out << doc;
  if (!opt.quiet) {
    std::fprintf(stderr, "merged summary written to %s\n",
                 opt.json.c_str());
  }
}

// ---- subcommands -----------------------------------------------------------

int cmd_list_cells(const LabOptions& opt) {
  const ExperimentSpec spec = load_spec(opt);
  const auto cells = spec.enumerate();
  if (opt.cells_json) {
    // One-line machine-readable form for scripts and CI.
    using dash::util::json_string;
    std::cout << "{\"spec\":" << json_string(spec.canonical())
              << ",\"hash\":" << json_string(spec.hash()) << ",\"cells\":[";
    for (const Cell& cell : cells) {
      if (cell.index) std::cout << ',';
      std::cout << "{\"index\":" << cell.index
                << ",\"family\":" << json_string(cell.family)
                << ",\"n\":" << cell.n
                << ",\"healer\":" << json_string(cell.healer)
                << ",\"scenario\":" << json_string(cell.scenario)
                << ",\"seed\":" << cell.seed
                << ",\"instances\":" << cell.instances << "}";
    }
    std::cout << "]}\n";
    return 0;
  }
  std::cout << "spec: " << spec.canonical() << "\n"
            << "hash: " << spec.hash() << "\n"
            << "cells: " << cells.size() << "\n";
  for (const Cell& cell : cells) {
    std::cout << "  [" << cell.index << "] family=" << cell.family
              << " n=" << cell.n << " healer=" << cell.healer
              << " scenario=" << cell.scenario << " seed=" << cell.seed
              << " instances=" << cell.instances << "\n";
  }
  return 0;
}

/// Execute the grid in this process: all of it, or one shard
/// (--shard I/N --out FILE) whose records a later merge reassembles.
int cmd_run(const LabOptions& opt) {
  const ExperimentSpec spec = load_spec(opt);
  dash::exp::RunnerOptions ropt;
  if (!opt.shard.empty()) parse_shard(opt.shard, &ropt.shard);
  ropt.threads = static_cast<std::size_t>(opt.threads);
  if (!opt.shard.empty() && opt.out.empty()) {
    throw std::invalid_argument(
        "--shard needs --out <file> to persist the shard's records");
  }
  if (opt.resume && opt.out.empty()) {
    throw std::invalid_argument(
        "--resume needs --out <file>: the shard record file is the "
        "resume manifest");
  }
  if (ropt.shard.count > 1 && !opt.json.empty()) {
    throw std::invalid_argument(
        "--json needs the whole grid; run the other shards and use "
        "'dash_lab merge'");
  }

  // Resume manifest: cells already recorded in --out are skipped; their
  // records merge with the new ones. A record from a different spec is
  // an error, not a silent recompute.
  std::set<std::size_t> skip;
  std::vector<dash::exp::ShardRecord> records;
  if (opt.resume && std::ifstream(opt.out).good()) {
    records = dash::exp::load_shard_file(opt.out);
    const std::string want = spec.hash();
    for (const auto& record : records) {
      if (record.spec_hash != want) {
        throw std::invalid_argument(
            "resume file '" + opt.out + "' carries spec hash " +
            record.spec_hash + ", this spec is " + want +
            " -- remove it or fix the spec");
      }
      skip.insert(record.cell);
    }
  }
  if (!skip.empty()) ropt.skip = &skip;

  std::ofstream shard_out;
  if (!opt.out.empty()) {
    // Always rewrite from the parsed records: an interrupted writer may
    // have left a truncated, newline-less final line that plain append
    // would concatenate the next record onto.
    shard_out.open(opt.out, std::ios::trunc);
    if (!shard_out) {
      throw std::runtime_error("cannot open --out path '" + opt.out + "'");
    }
    for (const auto& record : records) {
      shard_out << dash::exp::shard_line(record) << "\n";
    }
    shard_out.flush();
  }

  // Per-round rows: stream per finished cell (kept cells' rows carry
  // over from the resume file), canonicalize on completion so the
  // final file is byte-identical whether this run was the whole grid
  // or the shards were merged later.
  std::vector<dash::exp::RowsRecord> rows_records;
  std::ofstream rows_out;
  if (!opt.rows.empty()) {
    if (opt.resume && std::ifstream(opt.rows).good()) {
      for (auto& row : dash::exp::load_rows_file(opt.rows)) {
        if (skip.count(row.cell) != 0) rows_records.push_back(std::move(row));
      }
    }
    rows_out.open(opt.rows, std::ios::trunc);
    if (!rows_out) {
      throw std::runtime_error("cannot open --rows path '" + opt.rows +
                               "'");
    }
    rows_out << dash::exp::rows_header() << "\n";
    for (const auto& row : rows_records) rows_out << row.line << "\n";
    rows_out.flush();
    ropt.on_rows = [&](const Cell& cell,
                       const std::vector<dash::api::RoundRow>& rows) {
      for (const auto& row : rows) {
        dash::exp::RowsRecord rec;
        rec.cell = cell.index;
        rec.instance = row.instance;
        rec.seq = row.seq;
        rec.line = dash::exp::rows_line(cell.index, row);
        rows_out << rec.line << "\n";
        rows_records.push_back(std::move(rec));
      }
      rows_out.flush();  // rows land before the cell's record
    };
  }

  const std::size_t total = spec.enumerate().size();
  ropt.on_cell = [&](const dash::exp::CellResult& result) {
    records.push_back(dash::exp::to_record(spec, result));
    if (shard_out.is_open()) {
      shard_out << dash::exp::shard_line(records.back()) << "\n";
      shard_out.flush();  // every finished cell survives an interrupt
    }
    if (!opt.quiet) {
      std::fprintf(stderr, "  [%zu/%zu] n=%zu healer=%s scenario=%s\n",
                   result.cell.index + 1, total, result.cell.n,
                   result.cell.healer.c_str(),
                   result.cell.scenario.c_str());
    }
  };
  dash::exp::run(spec, ropt);

  if (rows_out.is_open()) {
    rows_out.close();
    std::ofstream canonical(opt.rows, std::ios::trunc);
    if (!canonical) {
      throw std::runtime_error("cannot rewrite --rows path '" + opt.rows +
                               "'");
    }
    canonical << dash::exp::merged_rows(std::move(rows_records));
  }

  // A full in-process grid can emit the merged document directly; a
  // true shard cannot (its records are a strict subset), which the
  // preflight check above already rejected.
  if (ropt.shard.count == 1 && (!opt.json.empty() || opt.out.empty())) {
    emit_document(opt, dash::exp::merged_document(spec, records));
  }
  return 0;
}

int cmd_merge(const LabOptions& opt) {
  const ExperimentSpec spec = load_spec(opt);
  if (opt.inputs.empty()) {
    throw std::invalid_argument(
        "merge needs --inputs <shard.jsonl,shard.jsonl,...>");
  }
  if (!opt.rows.empty() && opt.rows_inputs.empty()) {
    throw std::invalid_argument(
        "--rows needs --rows-inputs <rows.csv,rows.csv,...> to merge");
  }
  std::vector<dash::exp::ShardRecord> records;
  for (const std::string& path : split_commas(opt.inputs)) {
    const auto shard = dash::exp::load_shard_file(path);
    records.insert(records.end(), shard.begin(), shard.end());
  }
  if (!opt.rows_inputs.empty()) {
    if (opt.rows.empty()) {
      throw std::invalid_argument(
          "--rows-inputs needs --rows <file> for the merged rows");
    }
    std::vector<dash::exp::RowsRecord> rows;
    for (const std::string& path : split_commas(opt.rows_inputs)) {
      auto shard_rows = dash::exp::load_rows_file(path);
      rows.insert(rows.end(),
                  std::make_move_iterator(shard_rows.begin()),
                  std::make_move_iterator(shard_rows.end()));
    }
    std::ofstream rows_out(opt.rows, std::ios::trunc);
    if (!rows_out) {
      throw std::runtime_error("cannot open --rows path '" + opt.rows +
                               "'");
    }
    rows_out << dash::exp::merged_rows(std::move(rows));
    if (!opt.quiet) {
      std::fprintf(stderr, "merged rows written to %s\n",
                   opt.rows.c_str());
    }
  }
  emit_document(opt, dash::exp::merged_document(spec, records));
  return 0;
}

// ---- replay verbs ----------------------------------------------------------

int cmd_record(const LabOptions& opt) {
  if (opt.trace.empty()) {
    throw std::invalid_argument("record needs --trace <file>");
  }
  dash::replay::RecordConfig cfg;
  cfg.make_graph = dash::exp::make_family(
      opt.family, static_cast<std::size_t>(opt.n),
      static_cast<std::size_t>(opt.ba_edges));
  cfg.healer = opt.healer.empty() ? "dash" : opt.healer;
  cfg.scenario = dash::api::Scenario::parse(opt.scenario);
  cfg.seed = opt.seed;
  std::string repro;
  cfg.invariants = opt.invariants;
  cfg.repro = opt.repro_dir;
  cfg.repro_path = &repro;
  std::ofstream out(opt.trace, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open --trace path '" + opt.trace +
                             "'");
  }
  const dash::api::Metrics m = dash::replay::record_scenario(cfg, out);
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "recorded %s: healer=%s scenario=%s seed=%llu "
                 "deletions=%zu joins=%zu\n",
                 opt.trace.c_str(), cfg.healer.c_str(),
                 cfg.scenario.spec().c_str(),
                 static_cast<unsigned long long>(opt.seed), m.deletions,
                 m.joins);
  }
  if (opt.invariants && !m.violation.empty()) {
    std::fprintf(stderr, "invariant violation: %s\n  repro: %s\n",
                 m.violation.c_str(), repro.c_str());
    return 1;
  }
  return 0;
}

int cmd_replay(const LabOptions& opt) {
  if (opt.trace.empty()) {
    throw std::invalid_argument("replay needs --trace <file>");
  }
  const dash::replay::Trace t = dash::replay::load_trace_file(opt.trace);
  dash::replay::ReplayOptions ropt;
  ropt.healer_override = opt.healer;
  ropt.lenient = opt.lenient;
  ropt.check_invariants = opt.invariants;
  const dash::replay::ReplayResult r = dash::replay::play_trace(t, ropt);
  if (!opt.quiet) {
    std::fprintf(stderr, "replayed %zu events (%zu skipped) healer=%s%s\n",
                 r.applied, r.skipped,
                 opt.healer.empty() ? t.healer.c_str() : opt.healer.c_str(),
                 t.complete() ? "" : " [incomplete trace]");
  }
  if (r.ok()) return 0;
  std::fprintf(stderr, "replay failed: %s\n", r.failure().c_str());
  return 1;
}

int cmd_fuzz(const LabOptions& opt) {
  if (opt.trace.empty()) {
    throw std::invalid_argument("fuzz needs --trace <file>");
  }
  const dash::replay::Trace t = dash::replay::load_trace_file(opt.trace);
  dash::replay::FuzzOptions fopt;
  fopt.mutants = static_cast<std::size_t>(opt.mutants);
  fopt.seed = opt.seed;
  fopt.healers = split_commas(opt.healers);
  fopt.shrink = !opt.no_shrink;
  fopt.repro_dir = opt.repro_dir;
  const dash::replay::FuzzReport report =
      dash::replay::fuzz_trace(t, fopt);
  if (!opt.quiet || !report.ok()) {
    std::fprintf(stderr, "fuzz: %zu mutants, %zu replays, %zu failures\n",
                 report.mutants, report.replays, report.failures.size());
  }
  for (const auto& f : report.failures) {
    std::fprintf(stderr,
                 "  mutant %zu healer %s: %s (%zu -> %zu events)%s%s\n",
                 f.mutant, f.healer.c_str(), f.violation.c_str(),
                 f.original_events, f.shrunk_events,
                 f.repro_path.empty() ? "" : " repro ",
                 f.repro_path.c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmd_hunt(const LabOptions& opt) {
  dash::hunt::HuntConfig cfg;
  if (!opt.name.empty()) cfg.name = opt.name;
  cfg.family = opt.family;
  cfg.n = static_cast<std::size_t>(opt.n);
  cfg.ba_edges = static_cast<std::size_t>(opt.ba_edges);
  cfg.healers =
      split_commas(opt.healers.empty() ? std::string("dash") : opt.healers);
  cfg.instances = static_cast<std::size_t>(opt.instances);
  cfg.seed = opt.seed;
  cfg.stretch_every = static_cast<std::size_t>(opt.stretch_every);
  cfg.fitness = opt.fitness;
  cfg.strategy = opt.strategy;
  cfg.budget = static_cast<std::size_t>(opt.budget);
  cfg.top_k = static_cast<std::size_t>(opt.top);
  cfg.threads = static_cast<std::size_t>(opt.threads);
  cfg.state_dir = opt.state_dir;
  cfg.resume = opt.resume;
  cfg.trace_dir = opt.trace_dir;
  if (!opt.quiet) {
    cfg.progress = [](const std::string& line) {
      std::fprintf(stderr, "hunt: %s\n", line.c_str());
    };
  }

  const dash::hunt::HuntResult result = dash::hunt::run_hunt(cfg);
  if (result.best.empty()) {
    std::fprintf(stderr, "hunt: no candidates scored\n");
    return 1;
  }
  if (!opt.json.empty()) {
    std::ofstream out(opt.json, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open --json path '" + opt.json +
                               "'");
    }
    out << result.leaderboard_json;
  }
  // Parseable summary lines (the smoke tests grep these).
  std::printf("evaluations: %zu\n", result.evaluations);
  std::printf("best fitness=%s\n",
              dash::util::CsvWriter::to_field(result.best.front().fitness)
                  .c_str());
  std::printf("best spec=%s\n",
              result.best.front().genome.spec().c_str());
  for (const dash::hunt::HuntBest& best : result.best) {
    if (!best.trace_path.empty()) {
      std::printf("trace: %s\n", best.trace_path.c_str());
    }
  }
  const std::string board =
      opt.json.empty() ? result.leaderboard_path : opt.json;
  if (!board.empty()) std::printf("leaderboard: %s\n", board.c_str());
  return 0;
}

int cmd_serve_bench(const LabOptions& opt) {
  dash::api::ServeBenchConfig cfg;
  cfg.n = static_cast<std::size_t>(opt.n);
  cfg.attach = static_cast<std::size_t>(opt.ba_edges);
  if (!opt.healer.empty()) cfg.healer = opt.healer;
  cfg.scenario = opt.scenario;
  cfg.seed = opt.seed;
  cfg.distance_every = static_cast<std::size_t>(opt.distance_every);
  cfg.verify = opt.verify;
  cfg.rows_path = opt.rows;
  cfg.reader_counts.clear();
  for (const std::string& item : split_commas(opt.readers)) {
    cfg.reader_counts.push_back(static_cast<std::size_t>(
        dash::util::parse_spec_uint("readers", item, 1024)));
  }
  if (cfg.reader_counts.empty()) {
    throw std::invalid_argument("--readers needs at least one count");
  }

  const dash::api::ServeBenchReport report =
      dash::api::run_serve_bench(cfg);
  if (!opt.quiet) render_serve_table(report, std::cout);
  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    if (!os) {
      throw std::runtime_error("cannot open --json path '" + opt.json +
                               "'");
    }
    render_serve_json(cfg, report, os);
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(stdout);
  const bool grid_cmd =
      cmd == "run" || cmd == "merge" || cmd == "list-cells";
  const bool trace_cmd =
      cmd == "record" || cmd == "replay" || cmd == "fuzz";
  const bool bench_cmd = cmd == "serve-bench";
  const bool hunt_cmd = cmd == "hunt";
  if (!grid_cmd && !trace_cmd && !bench_cmd && !hunt_cmd) {
    std::fprintf(stderr, "dash_lab: unknown subcommand '%s'\n\n",
                 cmd.c_str());
    return usage(stderr);
  }

  LabOptions lab;
  dash::util::Options opt("dash_lab " + cmd +
                          " -- experiment grids, sharded execution, "
                          "byte-stable merges and trace replay");
  if (grid_cmd) {
    opt.add_string("spec", &lab.spec_path, "experiment spec file");
    opt.add_string("grid", &lab.grid,
                   "one-line spec, e.g. 'n=64|128 healer=dash|sdash "
                   "scenario=paper-churn instances=5'");
  }
  if (cmd == "run") {
    opt.add_string("shard", &lab.shard,
                   "run only cells of shard I/N (requires --out)");
    opt.add_string("out", &lab.out, "shard record file (JSON lines)");
    opt.add_flag("resume", &lab.resume,
                 "skip cells already recorded in the --out file");
    opt.add_uint("threads", &lab.threads,
                 "worker threads shared by the cells and their "
                 "instances (0 = hardware concurrency, 1 = sequential)");
    opt.add_string("rows", &lab.rows,
                   "stream per-round rows here (canonical CSV; --resume "
                   "keeps the recorded cells' rows)");
  }
  if (cmd == "merge") {
    opt.add_string("inputs", &lab.inputs,
                   "comma-separated shard record files");
    opt.add_string("rows-inputs", &lab.rows_inputs,
                   "comma-separated per-shard rows files");
    opt.add_string("rows", &lab.rows,
                   "write the merged rows CSV here (with --rows-inputs)");
  }
  if (trace_cmd) {
    opt.add_string("trace", &lab.trace, "the trace file (required)");
  }
  if (cmd == "record") {
    opt.add_string("family", &lab.family,
                   "graph family (ba, tree, gnp, ws, cycle, line)");
    opt.add_uint("n", &lab.n, "initial graph size");
    opt.add_uint("ba-edges", &lab.ba_edges, "BA attachment edges");
    opt.add_string("healer", &lab.healer,
                   "healer registry spec (default dash)");
    opt.add_string("scenario", &lab.scenario, "scenario spec");
    opt.add_uint("seed", &lab.seed, "run seed");
    opt.add_flag("invariants", &lab.invariants,
                 "run the invariant battery during the recording; a "
                 "violation shrinks the trace into an automatic repro "
                 "(exit 1)");
    opt.add_string("repro-dir", &lab.repro_dir,
                   "automatic repro directory (default $DASH_REPRO_DIR, "
                   "else dash_repro)");
  }
  if (cmd == "replay") {
    opt.add_string("healer", &lab.healer,
                   "replay under this healer instead of the recorded "
                   "one (disables digest verification)");
    opt.add_flag("lenient", &lab.lenient,
                 "skip events the graph state cannot apply (mutated/"
                 "truncated traces) instead of failing");
    opt.add_flag("invariants", &lab.invariants,
                 "attach the invariant battery; violations fail the "
                 "replay");
  }
  if (cmd == "fuzz") {
    opt.add_uint("mutants", &lab.mutants, "number of mutants");
    opt.add_uint("seed", &lab.seed, "fuzz seed");
    opt.add_string("healers", &lab.healers,
                   "comma-separated healer specs (default: the paper "
                   "strategy set)");
    opt.add_string("repro-dir", &lab.repro_dir,
                   "repro trace directory (default $DASH_REPRO_DIR, "
                   "else dash_repro)");
    opt.add_flag("no-shrink", &lab.no_shrink,
                 "keep failing mutants unshrunk (no repro files)");
  }
  if (cmd == "serve-bench") {
    opt.add_uint("n", &lab.n, "initial Barabasi-Albert network size");
    opt.add_uint("ba-edges", &lab.ba_edges, "BA attachment edges");
    opt.add_string("healer", &lab.healer,
                   "healer registry spec (default dash)");
    opt.add_string("scenario", &lab.scenario,
                   "mutation scenario spec (default paper-churn)");
    opt.add_uint("seed", &lab.seed, "base seed");
    opt.add_string("readers", &lab.readers,
                   "comma-separated reader thread counts to sweep");
    opt.add_uint("distance-every", &lab.distance_every,
                 "every k-th read runs the BFS cross-check (0 = never)");
    opt.add_flag("verify", &lab.verify,
                 "cross-check label vs BFS connectivity on every read");
    opt.add_string("rows", &lab.rows,
                   "stream the last round's per-round rows to this CSV");
    opt.add_string("json", &lab.json, "write the report as JSON here");
  }
  if (cmd == "hunt") {
    lab.threads = 0;
    opt.add_string("name", &lab.name,
                   "hunt name, used in artifact filenames (default hunt)");
    opt.add_string("family", &lab.family,
                   "graph family (ba, tree, gnp, ws, cycle, line)");
    opt.add_uint("n", &lab.n, "initial graph size");
    opt.add_uint("ba-edges", &lab.ba_edges, "BA attachment edges");
    opt.add_string("healers", &lab.healers,
                   "comma-separated healer specs the adversary is scored "
                   "against (default dash)");
    opt.add_uint("instances", &lab.instances,
                 "paired-seed runs per candidate per healer");
    opt.add_uint("seed", &lab.seed, "search + evaluation seed");
    opt.add_string("strategy", &lab.strategy,
                   "search strategy: random, greedy[:<neighbors>], "
                   "evolve[:<population>]");
    opt.add_string("fitness", &lab.fitness,
                   "what to maximize: delta, stretch, disconnect, or "
                   "combo:<wd>,<ws>,<wc>");
    opt.add_uint("budget", &lab.budget,
                 "distinct candidates to evaluate (hard cap)");
    opt.add_uint("top", &lab.top, "leaderboard / trace emission depth");
    opt.add_uint("stretch-every", &lab.stretch_every,
                 "stretch sampling cadence (0 = auto when the fitness "
                 "needs it)");
    opt.add_uint("threads", &lab.threads,
                 "worker threads scoring a generation's cells and "
                 "their instances (0 = hardware, 1 = sequential; same "
                 "results either way)");
    opt.add_string("state-dir", &lab.state_dir,
                   "spool + artifact directory; --resume reuses its "
                   "scores");
    opt.add_flag("resume", &lab.resume,
                 "warm-start from the state dir's evaluation spool");
    opt.add_string("trace-dir", &lab.trace_dir,
                   "write the best-k traces here (default: state dir)");
    opt.add_string("json", &lab.json,
                   "also write the HUNT_*.json leaderboard here");
  }
  if (cmd == "run" || cmd == "merge") {
    opt.add_string("json", &lab.json,
                   "write the merged BENCH_*.json here (default: stdout "
                   "for whole-grid runs)");
  }
  if (cmd == "list-cells") {
    opt.add_flag("json", &lab.cells_json,
                 "print the enumeration as one line of JSON");
  } else {
    opt.add_flag("quiet", &lab.quiet, "suppress progress on stderr");
  }

  // Options sees the subcommand's argv: argv[0] plus argv[2:].
  std::vector<char*> sub_argv{argv[0]};
  for (int i = 2; i < argc; ++i) sub_argv.push_back(argv[i]);
  if (!opt.parse(static_cast<int>(sub_argv.size()), sub_argv.data())) {
    return opt.help_requested() ? 0 : 2;
  }

  try {
    if (cmd == "list-cells") return cmd_list_cells(lab);
    if (cmd == "merge") return cmd_merge(lab);
    if (cmd == "serve-bench") return cmd_serve_bench(lab);
    if (cmd == "record") return cmd_record(lab);
    if (cmd == "replay") return cmd_replay(lab);
    if (cmd == "fuzz") return cmd_fuzz(lab);
    if (cmd == "hunt") return cmd_hunt(lab);
    return cmd_run(lab);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "dash_lab %s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dash_lab %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
