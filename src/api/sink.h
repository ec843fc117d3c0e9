// sink.h -- composable metric output for the engine layer.
//
// A MetricSink consumes two event kinds:
//
//   on_row(row)      one RoundRow per engine round (or join), the
//                    per-event time series the old analysis::Recorder
//                    captured;
//   on_run(i, m)     one Metrics snapshot when instance i finishes.
//
// Sinks compose: the same run can stream rows to a CSV file while a
// JSON summary collects the per-instance snapshots. Three built-ins:
//
//   MemorySink      rows + run snapshots in vectors (tests, plots)
//   CsvStreamSink   rows straight to an ostream -- constant memory, the
//                   right sink for churn-heavy long runs
//   JsonSummarySink per-run snapshots + aggregate statistics as a JSON
//                   document (the BENCH_*.json format)
//
// SinkObserver is the pipeline stage that feeds a sink from a live
// engine. In api::run_suite, sinks are instead fed after the parallel
// barrier in instance order, so sink output is byte-identical no
// matter how many worker threads ran the suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/metrics.h"
#include "api/observer.h"

namespace dash::api {

class Network;
class StretchObserver;

/// One time-series record: a deletion round (single or batch) or an
/// organic join, with the post-event shape of the network.
struct RoundRow {
  std::size_t instance = 0;  ///< suite instance index; 0 for single runs
  /// Per-instance emission index (0, 1, 2, ... in the order the
  /// instance produced its rows). (instance, seq) is a total order:
  /// exp's rows files carry it as a column and merge shards by it.
  std::size_t seq = 0;
  std::size_t round = 0;     ///< cumulative deletions after the event
  std::size_t deletions_in_round = 1;  ///< 0 for join rows
  /// Deleted node (first batch member for batch rounds); the joined
  /// node's id for join rows.
  std::uint32_t event_node = 0;
  bool is_join = false;
  std::size_t alive = 0;
  std::size_t edges = 0;
  std::size_t edges_added = 0;
  std::uint32_t max_delta = 0;
  std::size_t largest_component = 0;
  double stretch = 0.0;  ///< 0 when not sampled this round
  bool stretch_sampled = false;
};

/// The CsvStreamSink column set, exposed so other row emitters (the
/// exp layer's per-shard rows files) stay bit-for-bit in sync with the
/// in-process CSV stream.
const std::vector<std::string>& round_row_header();

/// Appends one row's fields, comma-separated and without a newline, in
/// round_row_header() order: integers as std::to_string writes them,
/// the stretch as util::CsvWriter::to_field does. CsvStreamSink and
/// exp::rows_line both write rows with it.
void append_round_row(std::string& out, const RoundRow& row);

class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual std::string name() const = 0;

  /// One per-event record. Default: ignore (summary-only sinks).
  virtual void on_row(const RoundRow& /*row*/) {}

  /// One finished run's metric snapshot. Default: ignore (row-only
  /// sinks).
  virtual void on_run(std::size_t /*instance*/, const Metrics& /*m*/) {}

  /// All producers are done; emit/flush any buffered output.
  virtual void flush() {}
};

/// Keeps everything in memory -- the in-process replacement for the
/// removed analysis::Recorder.
class MemorySink final : public MetricSink {
 public:
  std::string name() const override { return "memory"; }
  void on_row(const RoundRow& row) override { rows_.push_back(row); }
  void on_run(std::size_t instance, const Metrics& m) override {
    runs_.emplace_back(instance, m);
  }

  const std::vector<RoundRow>& rows() const { return rows_; }
  const std::vector<std::pair<std::size_t, Metrics>>& runs() const {
    return runs_;
  }
  bool empty() const { return rows_.empty() && runs_.empty(); }
  void clear() {
    rows_.clear();
    runs_.clear();
  }

 private:
  std::vector<RoundRow> rows_;
  std::vector<std::pair<std::size_t, Metrics>> runs_;
};

/// Streams rows to an ostream as CSV (header first) without retaining
/// them: memory stays constant over million-event churn scenarios.
class CsvStreamSink final : public MetricSink {
 public:
  explicit CsvStreamSink(std::ostream& out);

  std::string name() const override { return "csv"; }
  void on_row(const RoundRow& row) override;
  void flush() override;

  std::size_t rows_written() const { return rows_; }

 private:
  std::ostream& out_;
  std::string line_;  ///< reused per row: one write per line
  std::size_t rows_ = 0;
};

/// Collects per-run snapshots into labelled groups and, on flush(),
/// writes one document of bench_group objects (write_bench_document) --
/// the BENCH_*.json summary format.
class JsonSummarySink final : public MetricSink {
 public:
  explicit JsonSummarySink(std::ostream& out) : out_(out) {}

  /// Start a new labelled group ("n" = "256", "strategy" = "DASH", ...);
  /// subsequent on_run() calls land in it. Without any begin_group()
  /// the sink keeps one unlabelled group.
  void begin_group(std::vector<std::pair<std::string, std::string>> labels);

  std::string name() const override { return "json"; }
  void on_run(std::size_t instance, const Metrics& m) override;
  void flush() override;

 private:
  struct Group {
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<Metrics> runs;
  };

  std::ostream& out_;
  std::vector<Group> groups_;
  bool flushed_ = false;
};

// ---- the BENCH_*.json format ----------------------------------------------

/// One BENCH group object: the labels, every run's metrics, and each
/// metric's mean/stddev/min/max/median. JsonSummarySink writes its
/// groups with it, so a group rendered alone is byte-identical to the
/// same group inside a whole document.
std::string bench_group(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::vector<Metrics>& runs);

/// Writes the document around rendered groups:
/// {"groups":[g0,g1,...]}\n.
void write_bench_document(std::ostream& out,
                          const std::vector<std::string>& groups);

/// Inverse of bench_group for the runs: every run's metrics, read back
/// strictly. Throws util::JsonError on anything bench_group did not
/// write.
std::vector<Metrics> bench_group_runs(std::string_view group);

/// Pipeline stage feeding a sink from a live engine: one row per round
/// (and per join), one on_run() when the engine finishes. Register a
/// StretchObserver *before* this stage and pass it here to log its
/// samples into the rows.
class SinkObserver final : public Observer {
 public:
  explicit SinkObserver(MetricSink& sink,
                        const StretchObserver* stretch = nullptr,
                        std::size_t instance = 0)
      : sink_(sink), stretch_(stretch), instance_(instance) {}

  std::string name() const override { return "sink"; }
  void on_round_end(const Network& net, const RoundEvent& ev) override;
  void on_join(const Network& net, const JoinEvent& ev) override;
  void on_finish(const Network& net, Metrics& out) override;

 private:
  MetricSink& sink_;
  const StretchObserver* stretch_;
  std::size_t instance_;
  std::size_t seq_ = 0;  ///< next RoundRow::seq for this instance
};

}  // namespace dash::api
