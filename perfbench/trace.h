// trace.h -- the benchmark's span recorder.
//
// A span is one timed interval of one layer: name, start, end, the
// span that contains it, and the event it belongs to (instance:seq).
// Spans are recorded from outside the library -- around the calls the
// benchmark makes, by stamp observers between the engine's observers,
// and by a forwarding healer -- so tracing needs no program change.
//
// Spans go into a buffer reserved before the timed play starts; they
// are reduced to per-layer statistics, and optionally written out,
// only after the workload ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layers, named after the library modules they time. `kEvent` and
/// `kFinish` are the roots: an event span covers the play time from the
/// end of the previous event to the end of this one, a finish span the
/// tail of play after the last event, so the roots tile the play time
/// and a root's self time is time no layer claims.
enum class Layer : std::uint8_t {
  kEvent,
  kFinish,
  kAttackSelect,
  kApiJoin,
  kApiEngine,
  kCoreHeal,
  kTraceProbe,
  kConnectivity,
  kInvariants,
  kStretch,
  kSink,
  kPublish,
  kRead,
  kDistance,
};

/// Span names, indexed by Layer.
inline constexpr const char* kLayerNames[] = {
    "event",
    "finish",
    "attack.select",
    "api.join",
    "api.engine",
    "core.heal",
    "trace.probe",
    "graph.connectivity",
    "analysis.invariants",
    "analysis.stretch",
    "api.sink",
    "api.serve.publish",
    "api.serve.read",
    "api.serve.distance",
};
inline constexpr std::size_t kLayerCount = std::size(kLayerNames);
static_assert(kLayerCount == static_cast<std::size_t>(Layer::kDistance) + 1,
              "one name per layer");

inline const char* layer_name(Layer l) {
  return kLayerNames[static_cast<std::size_t>(l)];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same buffer; -1 for roots
  std::uint32_t instance = 0;
  std::uint32_t seq = 0;
  Layer layer = Layer::kEvent;
};

class Tracer {
 public:
  /// Reserve room for `spans` spans up front; the buffer still grows if
  /// the estimate was short, but a right estimate keeps allocation out
  /// of the timed play.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Event id stamped on every span recorded from now on.
  void set_event(std::uint32_t instance, std::uint32_t seq) {
    instance_ = instance;
    seq_ = seq;
  }

  /// Open a span under the innermost open span; close() ends it.
  void open(Layer layer, std::int64_t start_ns);
  void close(std::int64_t end_ns);
  /// A complete span under the innermost open span.
  void leaf(Layer layer, std::int64_t start_ns, std::int64_t end_ns);

  /// Hand over the recorded spans, leaving the tracer empty.
  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::int32_t parent() const { return open_.empty() ? -1 : open_.back(); }

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t instance_ = 0;
  std::uint32_t seq_ = 0;
};

/// Self time of every span: its duration minus its children's.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// One line per span: index, parent, layer, instance:seq, start, end
/// (nanoseconds, relative to the first span's start).
void write_spans(std::ostream& out, const std::vector<Span>& spans);

}  // namespace perfbench
