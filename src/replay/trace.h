// trace.h -- the deterministic record/replay trace format.
//
// A trace captures one api::Network run as a versioned, line-oriented
// JSONL document that replays bit-identically through the engine:
//
//   line 1   header: format version, healer spec, scenario spec, seed,
//            and the complete time-0 snapshot (graph edge list +
//            HealingState checkpoint, both via the existing serializers)
//   line 2+  one event per line -- remove / remove_batch / join with the
//            concrete node ids the run produced, plus phase-boundary
//            markers; every applied event carries a row digest of the
//            post-event network shape so replay divergence is pinned to
//            the exact event
//   last     footer: event count, cumulative digest, and the engine's
//            final metric snapshot
//
// The writer flushes every line, so a crashed run leaves a usable
// trace; the loader tolerates a truncated *final* line (the footer or a
// half-written event) and reports the trace as incomplete instead of
// failing. Interior corruption and version mismatches are named errors.
//
// Because events store concrete node ids -- never RNG draws -- a trace
// replays against *any* registered healer: deletions stay valid (only
// explicit events kill nodes) and join ids are allocated in recorded
// order. That is what makes golden-trace differential fuzzing
// (replay/fuzz.h) sound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/healing_state.h"
#include "graph/graph.h"

namespace dash::replay {

/// Format version stamped into every header; bumped on any
/// incompatible change to the line grammar.
inline constexpr int kTraceVersion = 1;

/// Malformed trace input (interior corruption, bad header, ...).
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// The named rejection for traces written by a different format
/// version -- callers can distinguish "re-record this" from "corrupt".
class VersionMismatchError : public TraceError {
 public:
  VersionMismatchError(int got, int want);
  int recorded_version() const { return recorded_; }

 private:
  int recorded_ = 0;
};

enum class EventKind {
  kRemove,  ///< one deletion; nodes = {victim}
  kBatch,   ///< simultaneous batch deletion; nodes = the batch
  kJoin,    ///< organic arrival; nodes = attach list, joined = new id
  kPhase,   ///< scenario phase boundary (informational marker)
};

struct TraceEvent {
  EventKind kind = EventKind::kRemove;
  std::vector<graph::NodeId> nodes;
  /// The id the join allocated (kJoin only; strict replay verifies it).
  graph::NodeId joined = graph::kInvalidNode;
  /// Canonical phase spec (kPhase only).
  std::string phase;
  /// Digest of the post-event network shape (0 for phase markers).
  std::uint64_t row_hash = 0;
};

/// The engine-maintained metric fields (api::Metrics minus observer
/// contributions), captured in the footer and compared on replay.
struct TraceMetrics {
  std::size_t deletions = 0;
  std::size_t joins = 0;
  std::uint32_t max_delta = 0;
  std::uint32_t max_id_changes = 0;
  std::uint64_t max_messages = 0;
  std::uint64_t max_messages_sent = 0;
  std::size_t edges_added = 0;
  std::size_t surrogate_heals = 0;
  std::size_t components = 0;
  std::size_t largest_component = 0;
  bool stayed_connected = true;

  bool operator==(const TraceMetrics&) const = default;
  /// "deletions=3 joins=1 ..." -- for divergence messages.
  std::string describe() const;
};

struct TraceFooter {
  std::size_t events = 0;        ///< applied events (phase markers excluded)
  std::uint64_t row_hash = 0;    ///< cumulative digest over all events
  TraceMetrics metrics;
};

struct Trace {
  int version = kTraceVersion;
  std::string healer;    ///< registry spec the run healed with
  std::string scenario;  ///< canonical scenario spec (informational)
  std::uint64_t seed = 0;  ///< the run's seed (informational)
  std::string graph_text;  ///< graph::write_edge_list snapshot at time 0
  std::string state_text;  ///< core::HealingState::save snapshot at time 0
  std::vector<TraceEvent> events;
  /// Absent when the recording was interrupted (no footer line).
  std::optional<TraceFooter> footer;

  /// A trace with a footer was recorded to completion.
  bool complete() const { return footer.has_value(); }
  /// Applied (non-phase) events.
  std::size_t applied_events() const;

  /// Reconstruct the time-0 graph / healing state from the snapshots.
  graph::Graph build_graph() const;
  core::HealingState build_state() const;
};

// ---- row digests -----------------------------------------------------------

/// FNV-1a over a little-endian u64 stream; digests start here.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Fold one value into a digest. Digests are written as util::hex16.
std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v);

// ---- serialization ---------------------------------------------------------

std::string header_line(const Trace& t);
std::string event_line(const TraceEvent& e);
std::string footer_line(const TraceFooter& f);

/// Streaming trace emission: header at construction, one line per
/// event, footer from finish(). Every line is flushed so an aborted
/// run still leaves a loadable (incomplete) trace.
class TraceWriter {
 public:
  /// Writes the header immediately; `header.events`/`footer` ignored.
  TraceWriter(std::ostream& out, const Trace& header);

  void event(const TraceEvent& e);
  void finish(const TraceFooter& f);

  bool finished() const { return finished_; }

 private:
  std::ostream& out_;
  bool finished_ = false;
};

/// Parse a trace. Throws VersionMismatchError for a foreign version,
/// TraceError for corrupt interior lines or a bad header. A malformed
/// or truncated *final* line is dropped and the trace loads without a
/// footer (complete() == false) -- the crash-tolerance contract.
Trace load_trace(std::istream& in);
Trace load_trace_file(const std::string& path);

/// Write a whole trace (header, events, footer when present). Used for
/// mutants and shrunken repros; the footer of a mutated trace is
/// dropped by the mutator, never rewritten here.
void write_trace(std::ostream& out, const Trace& t);
void write_trace_file(const std::string& path, const Trace& t);

}  // namespace dash::replay
