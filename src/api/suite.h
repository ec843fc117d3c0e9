// suite.h -- multi-instance experiment driver over api::Network: the
// Sec. 4.1 methodology (N independent random instances, each with its
// own deterministic RNG stream, summarized afterwards), driven by a
// declarative Scenario (api/scenario.h).
//
// Instances fan out across a util::ThreadPool; every instance derives
// its stream from (base_seed, index), and sink output is emitted after
// the parallel barrier in instance order, so sequential and parallel
// suites produce byte-identical metrics *and* byte-identical sink
// bytes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/network.h"
#include "api/scenario.h"
#include "api/sink.h"
#include "core/factory.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dash::api {

struct SuiteConfig {
  /// Draw the instance's starting network from its RNG stream.
  std::function<graph::Graph(dash::util::Rng&)> make_graph;
  /// Build the instance's healer.
  std::function<std::unique_ptr<core::HealingStrategy>()> make_healer;
  /// The per-instance workload, played against the instance's stream.
  Scenario scenario;
  /// Register per-instance observers on the fresh engine (optional);
  /// runs before the suite's own SinkObserver, so producers registered
  /// here are visible to it.
  std::function<void(Network&)> configure;
  /// Output sinks. Rows and run snapshots are delivered in instance
  /// order after all instances finished -- identical bytes for
  /// sequential and parallel execution. The caller owns flushing (a
  /// sink may collect across several suites, e.g. one JSON group per
  /// sweep cell).
  std::vector<MetricSink*> sinks;
  /// Capture per-round rows for the sinks. The per-row
  /// largest-component figure comes from the engine's incremental
  /// connectivity tracker (O(alpha) amortized); summary-only sinks
  /// should still leave this off.
  bool record_rows = false;
  /// Post-run inspection hook, called sequentially in instance order
  /// after every instance completed; the engine (graph + healing
  /// state) is kept alive until then. For measurements that need more
  /// than the Metrics snapshot.
  std::function<void(std::size_t, const Network&, const Metrics&)> inspect;
  std::size_t instances = 30;
  std::uint64_t base_seed = 0xDA5Bu;
};

/// Registry-spec convenience for SuiteConfig wiring.
inline std::function<std::unique_ptr<core::HealingStrategy>()>
healer_factory(const std::string& spec) {
  return [spec] { return core::make_strategy(spec); };
}

/// Run `instances` independent plays of cfg.scenario sequentially and
/// return per-instance metrics, ordered by instance index.
std::vector<Metrics> run_suite(const SuiteConfig& cfg);

/// Same, fanned out across a caller-owned pool (borrowed for the call
/// only -- share one pool across as many suites as you like; the suite
/// never stores it). Results and sink bytes are identical to the
/// sequential overload regardless of worker count.
std::vector<Metrics> run_suite(const SuiteConfig& cfg,
                               dash::util::ThreadPool& pool);

/// Aggregate one metric across instances.
dash::util::Summary summarize_metric(
    const std::vector<Metrics>& results,
    const std::function<double(const Metrics&)>& metric);

}  // namespace dash::api
