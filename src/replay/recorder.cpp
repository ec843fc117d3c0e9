#include "replay/recorder.h"

#include <sstream>
#include <streambuf>
#include <utility>

#include "api/observers.h"
#include "core/factory.h"
#include "graph/io.h"
#include "replay/play.h"
#include "replay/shrink.h"
#include "util/check.h"

namespace dash::replay {

namespace {

/// Duplicates every byte to two sinks -- the caller's trace stream and
/// the in-memory copy the auto-repro path shrinks from.
class TeeBuf final : public std::streambuf {
 public:
  TeeBuf(std::streambuf* a, std::streambuf* b) : a_(a), b_(b) {}

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return c;
    const char ch = traits_type::to_char_type(c);
    if (a_->sputc(ch) == traits_type::eof()) return traits_type::eof();
    if (b_->sputc(ch) == traits_type::eof()) return traits_type::eof();
    return c;
  }

  int sync() override {
    const int ra = a_->pubsync();
    const int rb = b_->pubsync();
    return ra == 0 && rb == 0 ? 0 : -1;
  }

 private:
  std::streambuf* a_;
  std::streambuf* b_;
};

/// Shrink the recorded failing trace and drop a repro next to where
/// fuzzing drops its own; the oracle is the lenient
/// replay-with-invariants the repro replays under
/// (`dash_lab replay --trace <repro> --lenient --invariants`).
std::string drop_invariant_repro(const std::string& trace_text,
                                 const std::string& violation,
                                 const std::string& dir) {
  Trace recorded;
  {
    std::istringstream in(trace_text);
    recorded = load_trace(in);
  }
  const TraceOracle oracle = [](const Trace& candidate) {
    ReplayOptions o;
    o.lenient = true;
    o.check_invariants = true;
    try {
      return !play_trace(candidate, o).violation.empty();
    } catch (const TraceError&) {
      return false;
    }
  };
  Trace to_write;
  try {
    to_write = shrink_trace(recorded, oracle);
  } catch (const TraceError&) {
    // The live violation did not reproduce under lenient replay (an
    // observer the replay does not re-register, say): keep the full
    // recording -- a non-minimal repro beats none.
    to_write = std::move(recorded);
  }
  return write_repro(to_write, "invariant violation: " + violation, dir);
}

}  // namespace

std::uint64_t event_digest(const TraceEvent& e, const api::Network& net) {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, static_cast<std::uint64_t>(e.kind));
  h = digest_mix(h, e.nodes.size());
  for (graph::NodeId v : e.nodes) h = digest_mix(h, v);
  if (e.kind == EventKind::kJoin) h = digest_mix(h, e.joined);
  // The engine metric snapshot covers the cumulative protocol state;
  // components/largest pin the connectivity structure itself (answered
  // by the incremental tracker in O(alpha) for owning engines).
  const api::Metrics m = net.metrics();
  h = digest_mix(h, m.deletions);
  h = digest_mix(h, m.joins);
  h = digest_mix(h, m.edges_added);
  h = digest_mix(h, m.max_delta);
  h = digest_mix(h, m.max_id_changes);
  h = digest_mix(h, m.max_messages);
  h = digest_mix(h, m.components);
  h = digest_mix(h, m.largest_component);
  h = digest_mix(h, net.graph().num_alive());
  h = digest_mix(h, net.graph().num_edges());
  return h;
}

RecorderSink::RecorderSink(std::ostream& out, std::string healer_spec,
                           std::string scenario_spec, std::uint64_t seed)
    : out_(out) {
  header_.healer = std::move(healer_spec);
  header_.scenario = std::move(scenario_spec);
  header_.seed = seed;
}

void RecorderSink::on_attach(const api::Network& net) {
  DASH_CHECK_MSG(!writer_.has_value(),
                 "RecorderSink registered on two engines");
  std::ostringstream graph_text;
  graph::write_edge_list(graph_text, net.graph());
  header_.graph_text = graph_text.str();
  std::ostringstream state_text;
  net.state().save(state_text);
  header_.state_text = state_text.str();
  writer_.emplace(out_, header_);
}

void RecorderSink::record(TraceEvent e, const api::Network& net) {
  DASH_CHECK_MSG(writer_.has_value(), "RecorderSink not attached");
  if (e.kind != EventKind::kPhase) {
    e.row_hash = event_digest(e, net);
    chain_ = digest_mix(chain_, e.row_hash);
    ++applied_;
  }
  writer_->event(e);
}

void RecorderSink::on_round_end(const api::Network& net,
                                const api::RoundEvent& ev) {
  TraceEvent e;
  if (ev.batch != nullptr) {
    e.kind = EventKind::kBatch;
    e.nodes = *ev.batch;
  } else {
    e.kind = EventKind::kRemove;
    e.nodes = {ev.victim};
  }
  record(std::move(e), net);
}

void RecorderSink::on_join(const api::Network& net,
                           const api::JoinEvent& ev) {
  TraceEvent e;
  e.kind = EventKind::kJoin;
  e.joined = ev.joined;
  e.nodes.assign(ev.attached_to.begin(), ev.attached_to.end());
  record(std::move(e), net);
}

void RecorderSink::on_phase(const api::Network& net,
                            const std::string& spec) {
  TraceEvent e;
  e.kind = EventKind::kPhase;
  e.phase = spec;
  record(std::move(e), net);
}

void RecorderSink::on_finish(const api::Network& net, api::Metrics&) {
  if (finished_) return;  // finish() may legitimately run again
  finished_ = true;
  const api::Metrics m = net.metrics();
  TraceFooter f;
  f.events = applied_;
  f.row_hash = chain_;
  f.metrics.deletions = m.deletions;
  f.metrics.joins = m.joins;
  f.metrics.max_delta = m.max_delta;
  f.metrics.max_id_changes = m.max_id_changes;
  f.metrics.max_messages = m.max_messages;
  f.metrics.max_messages_sent = m.max_messages_sent;
  f.metrics.edges_added = m.edges_added;
  f.metrics.surrogate_heals = m.surrogate_heals;
  f.metrics.components = m.components;
  f.metrics.largest_component = m.largest_component;
  f.metrics.stayed_connected = m.stayed_connected;
  writer_->finish(f);
}

api::Metrics record_scenario(const RecordConfig& cfg, dash::util::Rng& rng,
                             std::ostream& out) {
  DASH_CHECK_MSG(static_cast<bool>(cfg.make_graph),
                 "record_scenario needs make_graph");
  DASH_CHECK_MSG(!cfg.scenario.empty(), "record_scenario needs a scenario");
  if (cfg.repro_path != nullptr) cfg.repro_path->clear();

  // With the battery on, tee the trace into memory as well: a
  // violation shrinks the copy into a repro without re-running.
  std::ostringstream copy;
  TeeBuf tee(out.rdbuf(), copy.rdbuf());
  std::ostream tee_stream(&tee);
  std::ostream& trace_out = cfg.invariants ? tee_stream : out;

  graph::Graph g = cfg.make_graph(rng);
  api::Network net(std::move(g), core::make_strategy(cfg.healer), rng);
  RecorderSink recorder(trace_out, cfg.healer, cfg.scenario.spec(),
                        cfg.seed);
  net.add_observer(&recorder);
  api::InvariantObserver battery;
  if (cfg.invariants) net.add_observer(&battery);
  if (cfg.configure) cfg.configure(net);
  const api::Metrics m = net.play(cfg.scenario, rng);
  if (cfg.invariants && !m.violation.empty()) {
    const std::string path =
        drop_invariant_repro(copy.str(), m.violation, cfg.repro);
    if (cfg.repro_path != nullptr) *cfg.repro_path = path;
  }
  return m;
}

api::Metrics record_scenario(const RecordConfig& cfg, std::ostream& out) {
  dash::util::Rng rng(cfg.seed);
  return record_scenario(cfg, rng, out);
}

}  // namespace dash::replay
