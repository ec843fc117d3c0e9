#include "replay/play.h"

#include <algorithm>
#include <string>
#include <utility>

#include "api/observers.h"
#include "core/factory.h"
#include "replay/recorder.h"

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

/// Alive members of `nodes`, deduplicated, original order kept.
std::vector<graph::NodeId> alive_subset(const graph::Graph& g,
                                        const std::vector<graph::NodeId>& nodes) {
  std::vector<graph::NodeId> out;
  out.reserve(nodes.size());
  for (graph::NodeId v : nodes) {
    if (v < g.num_nodes() && g.alive(v) &&
        std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
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
  const bool verify =
      opt.verify && !opt.lenient && opt.healer_override.empty();

  ReplayResult result;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& e = t.events[i];
    switch (e.kind) {
      case EventKind::kPhase:
        net.notify_phase(e.phase);
        continue;
      case EventKind::kRemove: {
        const graph::NodeId v = e.nodes.empty() ? graph::kInvalidNode
                                                : e.nodes.front();
        if (v >= net.graph().num_nodes() || !net.graph().alive(v)) {
          if (!opt.lenient) {
            throw TraceError("event " + std::to_string(i) +
                             " removes dead node " + std::to_string(v));
          }
          ++result.skipped;
          continue;
        }
        net.remove(v);
        break;
      }
      case EventKind::kBatch: {
        const auto batch = alive_subset(net.graph(), e.nodes);
        if (!opt.lenient && batch.size() != e.nodes.size()) {
          throw TraceError("event " + std::to_string(i) +
                           " batch contains dead nodes");
        }
        if (batch.empty()) {
          ++result.skipped;
          continue;
        }
        net.remove_batch(batch);
        break;
      }
      case EventKind::kJoin: {
        const auto attach = alive_subset(net.graph(), e.nodes);
        if (!opt.lenient && attach.size() != e.nodes.size()) {
          throw TraceError("event " + std::to_string(i) +
                           " join attaches to dead nodes");
        }
        if (opt.lenient && attach.empty()) {
          // Nobody left to attach to (mutated trace): a zero-edge join
          // would disconnect any healer. Skip it, as TracePhase does.
          ++result.skipped;
          continue;
        }
        const graph::NodeId joined = net.join(attach);
        if (!opt.lenient && joined != e.joined) {
          throw TraceError("event " + std::to_string(i) +
                           " join allocated id " + std::to_string(joined) +
                           ", trace recorded " + std::to_string(e.joined));
        }
        break;
      }
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
