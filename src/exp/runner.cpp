#include "exp/runner.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "api/network.h"
#include "api/observers.h"
#include "api/sink.h"
#include "api/suite.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace dash::exp {

namespace {

api::ConnectivityMode parse_mode(const std::string& mode) {
  if (mode == "tracker") return api::ConnectivityMode::kTracker;
  if (mode == "verify") return api::ConnectivityMode::kVerify;
  throw std::invalid_argument("unknown connectivity mode '" + mode + "'");
}

}  // namespace

// ---- execution -------------------------------------------------------------

std::string render_group(const ExperimentSpec& spec, const Cell& cell,
                         const std::vector<api::Metrics>& runs) {
  return api::bench_group(cell.labels(spec.label_family()), runs);
}

CellResult run_cell(
    const ExperimentSpec& spec, const Cell& cell,
    dash::util::ThreadPool* pool,
    const std::function<void(const Cell&, const std::vector<api::RoundRow>&)>&
        on_rows) {
  const api::ConnectivityMode mode = parse_mode(spec.connectivity);
  api::SuiteConfig cfg;
  cfg.make_graph = make_family(cell.family, cell.n, spec.ba_edges);
  cfg.make_healer = api::healer_factory(cell.healer);
  cfg.scenario = api::Scenario::parse(cell.scenario);
  cfg.instances = cell.instances;
  cfg.base_seed = cell.seed;
  api::StretchObserverOptions stretch_opts;
  stretch_opts.sample_every = spec.stretch_every;
  stretch_opts.estimate = cell.stretch_estimate;
  stretch_opts.landmarks = cell.stretch_landmarks;
  stretch_opts.pairs = cell.stretch_pairs;
  const std::size_t stretch_every = spec.stretch_every;
  cfg.configure = [stretch_every, stretch_opts, mode](api::Network& net) {
    if (stretch_every > 0) {
      net.add_observer(
          std::make_unique<api::StretchObserver>(stretch_opts));
    }
    net.set_connectivity_mode(mode);
  };
  // Row capture only changes what is observed, never the run itself
  // (SinkObserver reads the engine's incremental component tracker),
  // so metrics stay byte-identical with or without on_rows.
  api::MemorySink row_sink;
  if (on_rows) {
    cfg.record_rows = true;
    cfg.sinks.push_back(&row_sink);
  }

  CellResult result;
  result.cell = cell;
  result.runs = pool != nullptr ? api::run_suite(cfg, *pool)
                                : api::run_suite(cfg);
  result.group_json = render_group(spec, cell, result.runs);
  if (on_rows) on_rows(cell, row_sink.rows());
  return result;
}

std::vector<CellResult> run(const ExperimentSpec& spec,
                            const RunnerOptions& opt) {
  if (opt.shard.count == 0 || opt.shard.index >= opt.shard.count) {
    throw std::invalid_argument(
        "bad shard options: index " + std::to_string(opt.shard.index) +
        " of " + std::to_string(opt.shard.count));
  }
  const auto cells = spec.enumerate();
  std::vector<const Cell*> todo;
  for (const Cell& cell : cells) {
    if (cell.index % opt.shard.count != opt.shard.index) continue;
    if (opt.skip != nullptr && opt.skip->count(cell.index) != 0) continue;
    todo.push_back(&cell);
  }

  std::vector<CellResult> results(todo.size());
  if (opt.threads == 1) {
    for (std::size_t i = 0; i < todo.size(); ++i) {
      results[i] = run_cell(spec, *todo[i], nullptr, opt.on_rows);
      if (opt.on_cell) opt.on_cell(results[i]);
    }
    return results;
  }

  // Cells run concurrently on one pool, and each cell's suite spreads
  // its instances over the same pool (parallel_for nests safely). A
  // finished cell is committed -- on_rows, then on_cell -- only once
  // every earlier cell has been, so the callbacks see the sequential
  // loop's order. As in the loop, a failure commits no later cell.
  util::ThreadPool pool(opt.threads);
  std::vector<std::vector<api::RoundRow>> rows(todo.size());
  std::vector<char> finished(todo.size(), 0);
  std::mutex mu;
  // Guarded by mu: cells below `committed` went through the callbacks;
  // none from `stop` (the first failure) on will.
  std::size_t committed = 0;
  std::size_t stop = todo.size();
  pool.parallel_for(todo.size(), [&](std::size_t i) {
    {
      std::lock_guard lock(mu);
      if (i >= stop) return;
    }
    decltype(opt.on_rows) keep_rows;
    if (opt.on_rows) {
      keep_rows = [&rows, i](const Cell&,
                             const std::vector<api::RoundRow>& r) {
        rows[i] = r;
      };
    }
    CellResult result;
    try {
      result = run_cell(spec, *todo[i], &pool, keep_rows);
    } catch (...) {
      std::lock_guard lock(mu);
      stop = std::min(stop, i);
      throw;
    }
    std::lock_guard lock(mu);
    results[i] = std::move(result);
    finished[i] = 1;
    while (committed < stop && finished[committed]) {
      const std::size_t k = committed++;
      try {
        if (opt.on_rows) opt.on_rows(results[k].cell, rows[k]);
        if (opt.on_cell) opt.on_cell(results[k]);
      } catch (...) {
        stop = committed;
        throw;
      }
      std::vector<api::RoundRow>().swap(rows[k]);
    }
  });
  return results;
}

// ---- shard record I/O ------------------------------------------------------

ShardRecord to_record(const ExperimentSpec& spec,
                      const CellResult& result) {
  return ShardRecord{result.cell.index, spec.hash(), result.group_json};
}

std::string shard_line(const ShardRecord& record) {
  // The group is a JSON object, embedded verbatim.
  std::string out = "{\"cell\":";
  out += std::to_string(record.cell);
  out += ",\"spec_hash\":";
  out += util::json_string(record.spec_hash);
  out += ",\"group\":";
  out += record.group_json;
  out += "}";
  return out;
}

bool parse_shard_line(const std::string& line, ShardRecord* out) {
  ShardRecord record;
  try {
    util::JsonReader r(line);
    r.expect("{\"cell\":");
    record.cell = r.uint<std::size_t>();
    r.expect(",\"spec_hash\":");
    record.spec_hash = r.string();
    r.expect(",\"group\":");
    // Exactly one balanced object: a line torn by an interrupted write
    // fails here or at the closing brace.
    record.group_json = r.object();
    r.expect("}");
    r.end();
  } catch (const util::JsonError&) {
    return false;
  }
  if (record.spec_hash.empty()) return false;
  *out = std::move(record);
  return true;
}

std::vector<ShardRecord> load_shard_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open shard file '" + path + "'");
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::vector<ShardRecord> records;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ShardRecord record;
    if (parse_shard_line(lines[i], &record)) {
      records.push_back(std::move(record));
    } else if (i + 1 == lines.size()) {
      // Interrupted write: the final line may be truncated; resuming
      // recomputes that cell.
      continue;
    } else {
      throw std::invalid_argument("corrupt shard file '" + path +
                                  "': bad record on line " +
                                  std::to_string(i + 1));
    }
  }
  return records;
}

std::string merged_document(const ExperimentSpec& spec,
                            const std::vector<ShardRecord>& records) {
  const auto cells = spec.enumerate();
  const std::string want = spec.hash();
  std::vector<const ShardRecord*> by_index(cells.size(), nullptr);
  for (const ShardRecord& record : records) {
    if (record.spec_hash != want) {
      throw std::invalid_argument(
          "spec hash mismatch: record for cell " +
          std::to_string(record.cell) + " carries " + record.spec_hash +
          ", this spec is " + want +
          " (the shard was produced by a different spec)");
    }
    if (record.cell >= cells.size()) {
      throw std::invalid_argument(
          "cell index " + std::to_string(record.cell) +
          " out of range (spec enumerates " +
          std::to_string(cells.size()) + " cells)");
    }
    const ShardRecord*& slot = by_index[record.cell];
    if (slot != nullptr && slot->group_json != record.group_json) {
      throw std::invalid_argument(
          "conflicting records for cell " + std::to_string(record.cell));
    }
    slot = &record;
  }
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    if (by_index[i] == nullptr) missing.push_back(i);
  }
  if (!missing.empty()) {
    std::string which;
    for (std::size_t i = 0; i < missing.size() && i < 8; ++i) {
      if (i) which += ", ";
      which += std::to_string(missing[i]);
    }
    if (missing.size() > 8) which += ", ...";
    throw std::invalid_argument(
        "incomplete merge: " + std::to_string(missing.size()) +
        " of " + std::to_string(cells.size()) + " cells missing (" +
        which + ")");
  }

  std::vector<std::string> groups;
  groups.reserve(by_index.size());
  for (const ShardRecord* record : by_index) {
    groups.push_back(record->group_json);
  }
  std::ostringstream out;
  api::write_bench_document(out, groups);
  return out.str();
}

// ---- per-shard rows I/O ----------------------------------------------------

std::string rows_header() {
  std::string out = "cell,seq";
  for (const std::string& col : api::round_row_header()) {
    out += ',';
    out += col;
  }
  return out;
}

std::string rows_line(std::size_t cell, const api::RoundRow& row) {
  std::string out = std::to_string(cell);
  out += ',';
  out += std::to_string(row.seq);
  out += ',';
  api::append_round_row(out, row);
  return out;
}

bool parse_rows_line(const std::string& line, RowsRecord* out) {
  RowsRecord record;
  std::string_view fields;
  try {
    util::JsonReader r(line);
    record.cell = r.uint<std::size_t>();
    r.expect(",");
    record.seq = r.uint<std::size_t>();
    r.expect(",");
    record.instance = r.uint<std::size_t>();
    r.expect(",");
    fields = r.rest();
  } catch (const util::JsonError&) {
    return false;
  }
  // The remaining fields are free-form CSV; a line torn inside them is
  // caught by the column count (round + the other 10 columns follow).
  std::size_t commas = 0;
  for (const char c : fields) {
    if (c == ',') ++commas;
  }
  if (commas != api::round_row_header().size() - 2 || line.back() == ',') {
    return false;
  }
  record.line = line;
  *out = record;
  return true;
}

std::vector<RowsRecord> load_rows_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open rows file '" + path + "'");
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) return {};
  if (lines.front() != rows_header()) {
    throw std::invalid_argument("rows file '" + path +
                                "' has an unexpected header");
  }
  std::vector<RowsRecord> records;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    RowsRecord record;
    if (parse_rows_line(lines[i], &record)) {
      records.push_back(std::move(record));
    } else if (i + 1 == lines.size()) {
      // Interrupted write: the final line may be torn; the cell it
      // belonged to is recomputed on resume.
      continue;
    } else {
      throw std::invalid_argument("corrupt rows file '" + path +
                                  "': bad line " + std::to_string(i + 1));
    }
  }
  return records;
}

std::string merged_rows(std::vector<RowsRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const RowsRecord& a, const RowsRecord& b) {
                     if (a.cell != b.cell) return a.cell < b.cell;
                     if (a.instance != b.instance) {
                       return a.instance < b.instance;
                     }
                     return a.seq < b.seq;
                   });
  std::string out = rows_header();
  out += '\n';
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) {
      const RowsRecord& prev = records[i - 1];
      const RowsRecord& cur = records[i];
      if (prev.cell == cur.cell && prev.instance == cur.instance &&
          prev.seq == cur.seq) {
        if (prev.line != cur.line) {
          throw std::invalid_argument(
              "conflicting rows for cell " + std::to_string(cur.cell) +
              " instance " + std::to_string(cur.instance) + " seq " +
              std::to_string(cur.seq));
        }
        continue;  // identical duplicate (rows replayed after a crash)
      }
    }
    out += records[i].line;
    out += '\n';
  }
  return out;
}

}  // namespace dash::exp
