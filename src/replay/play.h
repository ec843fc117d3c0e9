// play.h -- re-execute a recorded trace through api::Network.
//
// play_trace() rebuilds the engine from the trace's time-0 snapshot
// (graph + HealingState, so no RNG is consumed) and applies the
// recorded events in order. In strict mode (the default for complete
// traces) every applied event's digest is compared against the
// recording and the footer's engine metrics are verified -- a recorded
// run replays bit-identically or the result names the first diverging
// event.
//
// Lenient mode makes *mutated* traces executable: events invalidated
// by an earlier mutation (removing an already-dead node, attaching to
// a dead peer) are skipped or filtered instead of aborting, which is
// what lets the differential fuzzer (replay/fuzz.h) drive the same
// mutant through every registered healer. Lenient mode applies each
// event through apply_leniently (replay/trace_phase.h), the rule the
// `trace:<file>` scenario phase applies recorded events with.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "api/metrics.h"
#include "api/network.h"
#include "replay/trace.h"

namespace dash::replay {

struct ReplayOptions {
  /// Replay against this healer spec instead of the recorded one
  /// (traces carry concrete node ids, never RNG draws, so any
  /// registered healer accepts the same event sequence). Digest and
  /// footer verification are disabled automatically -- a different
  /// healer legitimately heals differently.
  std::string healer_override;
  /// Skip/filter events the current graph state cannot apply instead
  /// of failing the replay. Implies no digest verification; without it
  /// and healer_override, replay compares every event's digest and the
  /// footer metrics.
  bool lenient = false;
  /// Register an api::InvariantObserver and report its first violation
  /// in the result.
  bool check_invariants = false;
  /// Extra observers for the replay engine (a SinkObserver to
  /// re-materialize the run's rows, a StretchObserver, ...), registered
  /// after the invariant observer.
  std::function<void(api::Network&)> configure;
};

struct ReplayResult {
  /// The finished engine snapshot (observer contributions included).
  api::Metrics metrics;
  /// Engine-only fields in footer form, comparable to Trace::footer.
  TraceMetrics engine;
  /// Index (into Trace::events) of the first event whose digest did
  /// not match the recording; -1 when none diverged (or verification
  /// was off). Replay stops at the divergence.
  std::ptrdiff_t diverged_at = -1;
  std::size_t applied = 0;  ///< events executed
  std::size_t skipped = 0;  ///< events dropped/filtered (lenient mode)
  /// First invariant violation (check_invariants), empty otherwise.
  std::string violation;
  /// False when the trace footer's engine metrics differ from the
  /// replay's (verified only for complete traces in strict mode).
  bool metrics_match = true;

  bool ok() const {
    return diverged_at < 0 && metrics_match && violation.empty();
  }
  /// Human-readable failure reason; empty when ok().
  std::string failure() const;
};

/// Replay the trace. Throws TraceError for snapshots that do not
/// reconstruct, strict-mode events the graph state cannot apply, and
/// join-id drift; std::invalid_argument for unknown healer specs.
ReplayResult play_trace(const Trace& t, const ReplayOptions& opt = {});

}  // namespace dash::replay
