// serve_bench.h -- the mixed read/write workload harness behind
// `dash_lab serve-bench`: one mutation thread plays a churn+heal
// scenario through api::Network::serve() while N reader threads hammer
// the pinned-snapshot read path, reporting read throughput and
// p50/p99/p999 latency per reader count.
//
// Every read takes a fresh pin; most are O(1) connected() lookups,
// every `distance_every`-th runs a BFS distance on the same pin and --
// because distance() answers from the CSR arrays while connected()
// answers from the labels -- cross-checks the two (`verify` upgrades
// the cross-check to every read). Any disagreement within one pin is a
// torn read: the snapshot the reader held was not immutable. A clean
// run reports zero.
//
// The mutation side's Metrics are serialized per round and compared
// across reader counts: readers must not perturb the deterministic
// run (the batch byte-identity guarantee, now under concurrency).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/metrics.h"

namespace dash::api {

struct ServeBenchConfig {
  std::size_t n = 10000;            ///< initial Barabasi-Albert nodes
  std::size_t attach = 2;           ///< BA edges per node
  std::string healer = "dash";
  std::string scenario = "churn:0.3,0.1x2000";
  std::uint64_t seed = 1;
  std::vector<std::size_t> reader_counts = {1, 2, 4, 8};
  std::size_t distance_every = 16;  ///< every k-th read BFSes + cross-checks
  bool verify = false;              ///< cross-check *every* read
  /// Stream per-round rows through a CsvStreamSink to this path during
  /// the last round (empty = no row streaming). The file is opened
  /// before the first round.
  std::string rows_path;
};

struct ServeBenchRound {
  std::size_t readers = 0;
  double secs = 0.0;                ///< mutation (play) wall time
  std::uint64_t final_epoch = 0;    ///< snapshots published
  std::size_t reads = 0;            ///< total reads across readers
  std::size_t distance_reads = 0;   ///< reads that ran the BFS side
  std::size_t torn_reads = 0;       ///< label/BFS disagreements in a pin
  double reads_per_sec = 0.0;
  double p50_us = 0.0;              ///< per-read latency quantiles
  double p99_us = 0.0;
  double p999_us = 0.0;
  /// Publish-path split (graph::SnapshotStore telemetry): publishes
  /// that paid a full CSR rebuild vs delta-patched a recycled
  /// snapshot, and the vertices re-mirrored by the patched ones.
  std::size_t full_publishes = 0;
  std::size_t patched_publishes = 0;
  std::size_t touched_vertices = 0;
  Metrics metrics;                  ///< the mutation side's result
  std::string metrics_json;         ///< canonical serialization of ^
};

struct ServeBenchReport {
  std::vector<ServeBenchRound> rounds;
  /// True when every round produced byte-identical metrics_json --
  /// readers did not perturb the deterministic mutation stream.
  bool deterministic = true;
  std::size_t total_torn() const;
  bool ok() const { return deterministic && total_torn() == 0; }
};

/// Run the full grid of reader counts. Throws on bad config (unknown
/// healer, malformed scenario; std::invalid_argument, before anything
/// is built, for a BA graph of attach == 0 or n <= attach and for a
/// rows_path that cannot be opened for writing).
ServeBenchReport run_serve_bench(const ServeBenchConfig& cfg);

/// Human table (one row per reader count) / machine JSON document.
void render_serve_table(const ServeBenchReport& report, std::ostream& out);
void render_serve_json(const ServeBenchConfig& cfg,
                       const ServeBenchReport& report, std::ostream& out);

}  // namespace dash::api
