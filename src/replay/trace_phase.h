// trace_phase.h -- recorded traces as first-class scenario phases.
//
// `trace:<file>` in a scenario spec loads a replay trace (trace.h) at
// parse time and replays its event stream against whatever network the
// scenario is driving -- which is rarely the network the trace was
// recorded on. Application is therefore *lenient*: each event goes
// through apply_leniently below, the rule `play_trace` (replay/play.h)
// uses with lenient on, so dead or out-of-range node ids are filtered
// per event, empty events are skipped, and nothing is digest-verified.
// The phase honours the play context like any other phase: it ends at
// the deletion floor, skips a batch that does not fit above it, and
// stops when the play-level stop condition fires. Phase markers inside
// the trace are forwarded as nested phase notifications.
//
// This is what lets a shrunken fuzz repro or a captured workload ride
// an experiment grid: `--scenario "trace:repro.jsonl"` sweeps the
// recorded event pattern across every (family, n, healer) cell.
#pragma once

#include <cstddef>
#include <string>

#include "api/scenario.h"
#include "replay/trace.h"

namespace dash::replay {

class TracePhase final : public api::ScenarioPhase {
 public:
  /// Loads and validates the trace. Throws std::invalid_argument
  /// (wrapping the TraceError text) when the file is missing, corrupt,
  /// or a foreign format version -- at parse time, so a bad path fails
  /// spec validation instead of a worker mid-grid.
  explicit TracePhase(std::string path);

  std::string spec() const override { return "trace:" + path_; }
  void execute(api::PlayContext& ctx) const override;

  const Trace& trace() const { return trace_; }

 private:
  std::string path_;
  Trace trace_;
};

/// Applies one remove, batch or join event leniently: dead and
/// out-of-range ids are dropped, and an event left with nothing to
/// apply is skipped -- a join with no alive peer too, since a zero-edge
/// join would disconnect any healer. A batch that would leave fewer
/// than `floor` nodes alive is skipped as well. Returns false when the
/// event was skipped. Phase markers are the caller's to handle.
bool apply_leniently(api::Network& net, const TraceEvent& e,
                     std::size_t floor = 0);

namespace detail {
/// Registers the "trace" spelling in the scenario phase registry;
/// called by the registry builder itself (api/scenario.cpp) so the
/// spelling exists wherever the registry does, static-lib linking
/// notwithstanding.
void register_trace_phase(util::Registry<api::ScenarioPhase>* r);
}  // namespace detail

}  // namespace dash::replay
