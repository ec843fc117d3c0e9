#include "replay/trace_phase.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "api/network.h"

namespace dash::replay {

namespace {

/// Alive members of `nodes`, deduplicated, original order kept.
std::vector<graph::NodeId> alive_subset(
    const graph::Graph& g, const std::vector<graph::NodeId>& nodes) {
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

bool apply_leniently(api::Network& net, const TraceEvent& e,
                     std::size_t floor) {
  const graph::Graph& g = net.graph();
  switch (e.kind) {
    case EventKind::kRemove: {
      const graph::NodeId v =
          e.nodes.empty() ? graph::kInvalidNode : e.nodes.front();
      if (v >= g.num_nodes() || !g.alive(v)) return false;
      net.remove(v);
      return true;
    }
    case EventKind::kBatch: {
      const auto batch = alive_subset(g, e.nodes);
      if (batch.empty() || g.num_alive() < batch.size() + floor) {
        return false;
      }
      net.remove_batch(batch);
      return true;
    }
    case EventKind::kJoin: {
      const auto attach = alive_subset(g, e.nodes);
      if (attach.empty()) return false;
      net.join(attach);
      return true;
    }
    case EventKind::kPhase:
      break;
  }
  return false;
}

TracePhase::TracePhase(std::string path) : path_(std::move(path)) {
  if (path_.empty()) {
    throw std::invalid_argument(
        "bad trace phase: 'trace:' needs a file path (trace:<file>)");
  }
  try {
    trace_ = load_trace_file(path_);
  } catch (const TraceError& e) {
    throw std::invalid_argument("bad trace phase 'trace:" + path_ +
                                "': " + e.what());
  }
}

void TracePhase::execute(api::PlayContext& ctx) const {
  for (const TraceEvent& e : trace_.events) {
    if (ctx.stopped()) return;
    if (e.kind == EventKind::kPhase) {
      ctx.net.notify_phase(e.phase);
    } else if (e.kind == EventKind::kRemove &&
               ctx.net.graph().num_alive() <= ctx.floor) {
      return;  // a deletion at the floor ends the phase
    } else {
      apply_leniently(ctx.net, e, ctx.floor);
    }
  }
}

namespace detail {

void register_trace_phase(util::Registry<api::ScenarioPhase>* r) {
  r->add(
      "trace",
      [](const std::string& param) -> std::unique_ptr<api::ScenarioPhase> {
        return std::make_unique<TracePhase>(param);
      },
      {}, "trace:<file>");
}

}  // namespace detail

}  // namespace dash::replay
