// runner.h -- sharded execution of an ExperimentSpec grid.
//
// run() walks the spec's deterministic cell list and executes the
// shard's share (cells with index ≡ shard.index mod shard.count), each
// cell one api::run_suite over the cell's derived seed. Every finished
// cell yields a CellResult carrying the cell, its per-instance Metrics,
// and the cell's serialized BENCH_*.json group -- rendered by
// api::bench_group, the very renderer JsonSummarySink writes
// single-process documents with, which is what makes reassembled shard
// output *byte-identical* to a sequential run:
//
//   merged_document(spec, all records)            == sequential bytes
//   merged_document(spec, shard0 ∪ shard1 ∪ ...)  == sequential bytes
//
// `dash_lab run --shard I/N --out FILE` persists a shard's records as
// JSON lines (one ShardRecord per line, stamped with the spec's hash);
// the same file doubles as the resume manifest -- cells already
// recorded are skipped on re-run. merge rejects records whose spec
// hash does not match and documents with missing or conflicting cells.
//
// Within one process, run() spreads the shard's cells and each cell's
// instances over one util::ThreadPool and commits finished cells in
// enumeration order, so its callbacks, records and rows are the same
// bytes at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "api/sink.h"
#include "exp/spec.h"

namespace dash::util {
class ThreadPool;
}

namespace dash::exp {

/// Which slice of the cell list this process executes: cells with
/// index ≡ index (mod count). {0, 1} is the whole grid.
struct ShardOptions {
  std::size_t index = 0;
  std::size_t count = 1;
};

struct CellResult {
  Cell cell;
  std::vector<api::Metrics> runs;  ///< per-instance snapshots, in order
  /// The cell's group object exactly as a single-process
  /// JsonSummarySink document would contain it.
  std::string group_json;
};

struct RunnerOptions {
  ShardOptions shard;
  /// Worker threads of the one pool the shard's cells and their suite
  /// instances share: 0 = hardware concurrency, 1 = run everything on
  /// the calling thread, one cell after another. Results and callback
  /// order are identical either way.
  std::size_t threads = 0;
  /// Streamed per finished cell, in the shard's cell order -- persist
  /// shard records here so interrupted sweeps keep completed cells.
  /// With threads != 1 it is called from pool workers, one call at a
  /// time.
  std::function<void(const CellResult&)> on_cell;
  /// When set, every cell's suite runs with record_rows on and the
  /// cell's full per-round row series is streamed here (before
  /// on_cell) in the suite's deterministic buffered order -- rows
  /// sorted by (RoundRow::instance, RoundRow::seq). This is how shard
  /// workers feed per-shard rows files whose merge is byte-identical
  /// to an in-process CsvStreamSink run. Called like on_cell.
  std::function<void(const Cell&, const std::vector<api::RoundRow>&)>
      on_rows;
  /// Cell indices to skip (already completed, from a resume manifest).
  const std::set<std::size_t>* skip = nullptr;
};

/// Execute the shard's cells; returns their results in enumeration
/// order (skipped cells are absent). Throws std::invalid_argument for
/// malformed shard options and anything spec validation rejects; after
/// a failure no later cell reaches the callbacks.
std::vector<CellResult> run(const ExperimentSpec& spec,
                            const RunnerOptions& opt = {});

/// Execute exactly one cell of the grid -- run()'s unit of work.
/// `pool` (when non-null) fans the cell's suite instances out;
/// `on_rows`, when set, receives the cell's full deterministic row
/// series before returning. The result (and its rows) is
/// byte-identical to the same cell executed by run() under any
/// sharding and thread count -- that is what lets merge combine cells
/// computed anywhere in any order.
CellResult run_cell(
    const ExperimentSpec& spec, const Cell& cell,
    dash::util::ThreadPool* pool = nullptr,
    const std::function<void(const Cell&, const std::vector<api::RoundRow>&)>&
        on_rows = {});

/// Render one cell's BENCH group object from its per-instance metrics
/// (exposed for tests; run() fills CellResult::group_json with it).
std::string render_group(const ExperimentSpec& spec, const Cell& cell,
                         const std::vector<api::Metrics>& runs);

// ---- shard record I/O ------------------------------------------------------

/// One persisted cell result: a line of a shard file.
struct ShardRecord {
  std::size_t cell = 0;
  std::string spec_hash;
  std::string group_json;
};

ShardRecord to_record(const ExperimentSpec& spec, const CellResult& result);

/// One-line JSON serialization (no trailing newline).
std::string shard_line(const ShardRecord& record);

/// Strict inverse of shard_line; returns false on malformed input.
bool parse_shard_line(const std::string& line, ShardRecord* out);

/// Load a shard file's records. A malformed *final* line (interrupted
/// write) is dropped silently -- that is the resume contract; malformed
/// interior lines throw std::invalid_argument.
std::vector<ShardRecord> load_shard_file(const std::string& path);

/// Reassemble the single BENCH_*.json document from shard records.
/// Order of `records` is irrelevant (cells are sorted by index).
/// Throws std::invalid_argument when a record's spec hash differs from
/// spec.hash(), a cell index is out of range, two records disagree
/// about one cell, or cells are missing.
std::string merged_document(const ExperimentSpec& spec,
                            const std::vector<ShardRecord>& records);

// ---- per-shard rows I/O ----------------------------------------------------
//
// With --rows, every worker streams its cells' RoundRows to a CSV-ish
// rows file: one header, then one line per row prefixed with the
// (cell, seq) sort key; the row fields themselves come from
// api::append_round_row, i.e. exactly the bytes CsvStreamSink would
// write. merged_rows() reassembles any multiset of rows files into one
// canonical document -- sorted by (cell, instance, seq), tolerant of
// identical duplicates (a worker killed after its rows but before its
// record re-emits them on resume) -- so sharded and in-process runs
// produce byte-identical rows output.

/// One persisted RoundRow line plus its parsed sort key.
struct RowsRecord {
  std::size_t cell = 0;
  std::size_t instance = 0;
  std::size_t seq = 0;
  std::string line;  ///< the full line as written (no newline)
};

/// The rows-file header line (no newline): "cell,seq," + the
/// CsvStreamSink column set.
std::string rows_header();

/// One row's line (no newline): cell, seq, then api::append_round_row.
std::string rows_line(std::size_t cell, const api::RoundRow& row);

/// Parse a rows line's sort-key prefix; false on malformed input.
bool parse_rows_line(const std::string& line, RowsRecord* out);

/// Load a rows file (header + lines). A malformed *final* line
/// (interrupted write) is dropped -- the resume contract; a bad header
/// or malformed interior line throws std::invalid_argument.
std::vector<RowsRecord> load_rows_file(const std::string& path);

/// The canonical rows document: header + every record sorted stably by
/// (cell, instance, seq), identical duplicates collapsed. Two records
/// sharing a key but differing in content throw std::invalid_argument.
std::string merged_rows(std::vector<RowsRecord> records);

}  // namespace dash::exp
