#include "replay/play.h"

#include <algorithm>
#include <string>
#include <utility>

#include "api/observers.h"
#include "core/factory.h"
#include "replay/recorder.h"
#include "replay/trace_phase.h"

namespace dash::replay {

namespace {

TraceMetrics engine_metrics(const api::Metrics& m) {
  TraceMetrics out;
  out.deletions = m.deletions;
  out.joins = m.joins;
  out.max_delta = m.max_delta;
  out.max_id_changes = m.max_id_changes;
  out.max_messages = m.max_messages;
  out.max_messages_sent = m.max_messages_sent;
  out.edges_added = m.edges_added;
  out.surrogate_heals = m.surrogate_heals;
  out.components = m.components;
  out.largest_component = m.largest_component;
  out.stayed_connected = m.stayed_connected;
  return out;
}

/// True when every id of `nodes` is alive and listed once, so the event
/// applies exactly as recorded.
bool all_alive_once(const graph::Graph& g,
                    const std::vector<graph::NodeId>& nodes) {
  for (auto it = nodes.begin(); it != nodes.end(); ++it) {
    if (*it >= g.num_nodes() || !g.alive(*it) ||
        std::find(nodes.begin(), it, *it) != it) {
      return false;
    }
  }
  return true;
}

/// Applies event `i` exactly as recorded, or throws TraceError naming
/// what the graph cannot take. Returns false for an empty batch.
bool apply_strictly(api::Network& net, const TraceEvent& e, std::size_t i) {
  const graph::Graph& g = net.graph();
  const auto fail = [i](const std::string& what) {
    return TraceError("event " + std::to_string(i) + " " + what);
  };
  switch (e.kind) {
    case EventKind::kRemove: {
      const graph::NodeId v =
          e.nodes.empty() ? graph::kInvalidNode : e.nodes.front();
      if (v >= g.num_nodes() || !g.alive(v)) {
        throw fail("removes dead node " + std::to_string(v));
      }
      net.remove(v);
      return true;
    }
    case EventKind::kBatch:
      if (!all_alive_once(g, e.nodes)) throw fail("batch contains dead nodes");
      if (e.nodes.empty()) return false;
      net.remove_batch(e.nodes);
      return true;
    case EventKind::kJoin: {
      if (!all_alive_once(g, e.nodes)) {
        throw fail("join attaches to dead nodes");
      }
      const graph::NodeId joined = net.join(e.nodes);
      if (joined != e.joined) {
        throw fail("join allocated id " + std::to_string(joined) +
                   ", trace recorded " + std::to_string(e.joined));
      }
      return true;
    }
    case EventKind::kPhase:
      break;
  }
  return false;
}

}  // namespace

std::string ReplayResult::failure() const {
  if (diverged_at >= 0) {
    return "replay diverged at event " + std::to_string(diverged_at);
  }
  if (!violation.empty()) return "invariant violation: " + violation;
  if (!metrics_match) {
    return "replayed engine metrics differ from the recorded footer: " +
           engine.describe();
  }
  return {};
}

ReplayResult play_trace(const Trace& t, const ReplayOptions& opt) {
  graph::Graph g = t.build_graph();
  core::HealingState state = t.build_state();
  if (state.num_nodes() != g.num_nodes()) {
    throw TraceError("healing-state snapshot covers " +
                     std::to_string(state.num_nodes()) +
                     " nodes, graph snapshot " +
                     std::to_string(g.num_nodes()));
  }
  const std::string& healer =
      opt.healer_override.empty() ? t.healer : opt.healer_override;
  api::Network net(std::move(g), core::make_strategy(healer),
                   std::move(state));

  api::InvariantObserver invariants;
  if (opt.check_invariants) net.add_observer(&invariants);
  if (opt.configure) opt.configure(net);

  // A different healer heals differently, and lenient filtering changes
  // the applied events: recorded digests only certify the strict,
  // same-healer replay.
  const bool verify = !opt.lenient && opt.healer_override.empty();

  ReplayResult result;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& e = t.events[i];
    if (e.kind == EventKind::kPhase) {
      net.notify_phase(e.phase);
      continue;
    }
    if (!(opt.lenient ? apply_leniently(net, e) : apply_strictly(net, e, i))) {
      ++result.skipped;
      continue;
    }
    ++result.applied;
    if (verify && event_digest(e, net) != e.row_hash) {
      result.diverged_at = static_cast<std::ptrdiff_t>(i);
      break;
    }
  }

  result.metrics = net.finish();
  result.engine = engine_metrics(net.metrics());
  result.violation = result.metrics.violation;
  if (verify && result.diverged_at < 0 && t.footer.has_value()) {
    result.metrics_match = result.engine == t.footer->metrics;
  }
  return result;
}

}  // namespace dash::replay
