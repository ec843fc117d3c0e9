// metrics.h -- the metric snapshot a Network engine reports.
//
// Engine-maintained fields (deletions, edges_added, ...) are updated as
// events happen; observer-contributed fields (violation, max_stretch)
// are filled in by whichever observers are registered when the engine
// finishes a run. The struct is the same shape the paper's experiments
// report, so one snapshot serves every figure.
//
// Every field is a pure function of the seed and the workload -- no
// wall-clock numbers live here -- so sequential and parallel suite
// runs over the same seeds produce byte-identical snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dash::api {

struct Metrics {
  std::size_t deletions = 0;  ///< adversarial/organic removals so far
  std::size_t joins = 0;      ///< organic arrivals so far
  /// Paper's headline metric: max over nodes and over time of delta(v).
  std::uint32_t max_delta = 0;
  std::uint32_t max_id_changes = 0;
  std::uint64_t max_messages = 0;       ///< sent + received (Lemma 8)
  std::uint64_t max_messages_sent = 0;  ///< sent only (Fig. 9(b)'s metric)
  std::size_t edges_added = 0;          ///< healing edges inserted into G
  std::size_t surrogate_heals = 0;      ///< SDASH star-rule activations
  double max_stretch = 0.0;  ///< max over sampled rounds (StretchObserver)
  /// Component structure at snapshot time, answered by the engine's
  /// incremental connectivity tracker. 0 when no node is alive.
  std::size_t components = 0;
  std::size_t largest_component = 0;
  /// True while no connectivity check ever failed. Per-round checks are
  /// lazy (RoundEvent::connected()): a round is only inspected when an
  /// observer asks, plus one final check in Network::finish(). A play
  /// whose stop condition asks `component_count() > 1` ends at the
  /// first disconnection, where that final check sees it.
  bool stayed_connected = true;
  /// First invariant violation encountered (empty if none / unchecked;
  /// filled by InvariantObserver).
  std::string violation;
};

}  // namespace dash::api
