// workload.cpp -- one benchmark workload, run in one single-threaded
// process through the public api::Network::play path.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--expected <file>]
//                      [--write-expected <file>] [--spans <file>]
//                      [--tiny] [--healer <spec>]
//
// A *pass* is the workload's fixed, seed-determined work: every
// instance generated from the seed, set up, and played to the end. A
// run makes the workload's fixed number of passes; --seconds only caps
// it. Every pass must reproduce the first pass's outcome bytes.
//
// The host's speed changes from one second to the next: its clock
// steps, and another tenant's thread on the same core slows ours by up
// to half. Every timing follows it. So a fixed reference kernel of the
// benchmark's own -- breadth-first searches over a fixed graph, graph
// work like the library's -- is timed before each instance's set-up,
// before its play and after it, and the times in between are scaled to
// the reference speed: multiplied by the kernel's reference time over
// its mean time at the two ends. Every end-to-end and per-layer time is
// such a reference-speed time; the wall-clock figures are printed as
// info lines beside them. The passes' times are then reduced to
// medians: the median pass's play for the event rate and set-up, and
// for latencies each round's median repetition. The passes take turns
// on the CPUs the process may use.
//
// --trace 1 alternates untraced and traced passes. The traced passes
// add a forwarding healer and clock stamps between the engine's
// observers; their spans give the per-layer metrics, and the untraced
// passes of the same process give the tracing overhead.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, and the metrics of the mode. The exit code is non-zero when
// any operation failed or any outcome differed.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "analysis/invariants.h"
#include "api/network.h"
#include "api/observers.h"
#include "api/scenario.h"
#include "api/serve.h"
#include "api/sink.h"
#include "core/bounds.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dash::util::Rng;
namespace api = dash::api;
namespace core = dash::core;
namespace graph = dash::graph;

constexpr std::uint64_t kDefaultSeed = 1;
/// Passes a run makes even when --seconds is up: untraced, and each
/// kind of a traced run.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
/// The reference speed: a round figure for the time
/// ReferenceKernel::time_ms() takes on the machine the benchmark was
/// tuned on (README.md, "Noise"). A time at the reference speed is wall
/// time multiplied by kReferenceKernelMs over the kernel's mean time
/// around it.
constexpr double kReferenceKernelMs = 1.5;
/// Battery cadence of the invariant observer: run every round, the
/// O(n + m) battery would cost several times the rest of the loop.
constexpr std::size_t kInvariantEvery = 16;
constexpr std::size_t kStretchEvery = 64;
/// connected() queries per publish on the serving workload.
constexpr std::size_t kLabelReads = 256;

// ---- workloads ---------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t n = 0;            ///< BA(n, 2) per instance
  std::string scenario;         ///< phase spec played per instance
  std::size_t instances = 0;    ///< per pass, each from its own stream
  std::size_t max_events = 0;   ///< upper bound of events per instance
  std::size_t passes = 0;       ///< per run
  bool serve = false;           ///< publish after every event + reads
  bool analysis = false;        ///< invariants, stretch and CSV sink on
};

/// The three workloads, each BA(4096, 2) so that an instance's working
/// set stays near a core's L2 (see README.md, "Noise"). The pass counts
/// fill 11 to 15 s of a 30 s run on the machine the benchmark was tuned
/// on, which leaves room for that machine's slow stretches, and are
/// multiples of its four CPUs, which the passes take turns on. --tiny
/// shrinks each to a self-test size with the same pipeline.
std::optional<Workload> find_workload(const std::string& name, bool tiny) {
  if (name == "serve-strike") {
    return Workload{name, tiny ? 1000u : 4096u,
                    tiny ? "strike:randomx100" : "strike:randomx1000",
                    tiny ? 2u : 4u, tiny ? 100u : 1000u, 16, true, false};
  }
  if (name == "paper-targeted") {
    return Workload{name, tiny ? 512u : 4096u, "targeted:neighborofmax",
                    tiny ? 2u : 4u, tiny ? 512u : 4096u, 8, false, true};
  }
  if (name == "churn-joins") {
    return Workload{name, tiny ? 1000u : 4096u,
                    tiny ? "churn:0.5,0.5x1000" : "churn:0.5,0.5x4096",
                    tiny ? 2u : 8u, tiny ? 2000u : 8192u, 12, false, false};
  }
  return std::nullopt;
}

// ---- one pass ------------------------------------------------------------

/// Counts of one pass, summed over its instances. Deterministic: they
/// repeat exactly for one seed.
struct Counts {
  std::size_t rounds = 0;
  std::size_t joins = 0;
  std::size_t label_reads = 0;
  std::size_t distance_reads = 0;
  std::size_t failed_rounds = 0;
  std::size_t failed_reads = 0;
  std::size_t torn_reads = 0;
  std::size_t heal_calls = 0;
  std::size_t ids_rewritten = 0;
  std::size_t gprime_visited = 0;
  std::size_t certified_rounds = 0;
  std::size_t conn_rebuilds = 0;
  std::size_t conn_rescanned = 0;
  std::size_t id_space = 0;
  std::size_t alive = 0;
  std::size_t slab_size = 0;
  std::size_t slab_free = 0;
  std::size_t full_publishes = 0;
  std::size_t patched_publishes = 0;
  std::size_t touched_vertices = 0;
  std::size_t battery_runs = 0;
  std::size_t stretch_samples = 0;
  std::size_t sink_rows = 0;
};

struct PassRecord {
  std::vector<std::int64_t> setup_ns;    ///< per instance
  std::vector<std::int64_t> play_ns;     ///< per instance: Network::play
  std::vector<std::int64_t> stretch_attach_ns;  ///< per instance
  std::vector<std::int64_t> latency_ns;  ///< per deletion round
  std::vector<std::size_t> rounds_end;   ///< latency_ns.size() per instance
  /// The reference kernel before each instance's set-up and before its
  /// play, and once after the last play: 2 * instances + 1 timings.
  std::vector<double> kernel_ms;
  Counts counts;
  std::string outcome;  ///< JsonSummarySink bytes of the instances
  std::vector<Span> spans;  ///< traced passes only

  /// Instance i's factors to the reference speed, for its set-up and for
  /// its play: the kernel's reference time over its mean time at the two
  /// timings around the set-up or the play.
  double setup_scale(std::size_t i) const { return scale(2 * i); }
  double play_scale(std::size_t i) const { return scale(2 * i + 1); }

 private:
  double scale(std::size_t k) const {
    return 2.0 * kReferenceKernelMs / (kernel_ms[k] + kernel_ms[k + 1]);
  }
};

/// The benchmark's view of one instance's play. Stamp observers and the
/// forwarding healer call into it; it keeps the clock readings, checks
/// each round's outcome, and runs the read loop after each publish.
class Probe {
 public:
  Probe(PassRecord& rec, Tracer* tracer, std::uint32_t instance,
        std::vector<Layer> stages, Rng read_rng)
      : rec_(rec),
        tracer_(tracer),
        instance_(instance),
        stages_(std::move(stages)),
        stamps_(stages_.size() + 1),
        pairs_(kLabelReads),
        read_rng_(read_rng) {}

  void attach(const api::Network& net,
              const api::InvariantObserver* invariants,
              const api::StretchObserver* stretch,
              api::ServeReader* reader) {
    net_ = &net;
    invariants_ = invariants;
    stretch_ = stretch;
    reader_ = reader;
    delta_bound_ = core::bounds::dash_delta_bound(net.initial_size());
  }

  void play_begin(std::int64_t t) {
    prev_end_ = t;
    if (tracer_ != nullptr) tracer_->set_event(instance_, seq_);
  }

  void play_end(std::int64_t t) {
    if (tracer_ != nullptr) tracer_->close(t);
  }

  // -- stamp callbacks ---------------------------------------------------

  void round_begin() {
    round_begin_ns_ = now_ns();
    if (tracer_ != nullptr) {
      tracer_->open(Layer::kEvent, prev_end_);
      tracer_->leaf(Layer::kAttackSelect, prev_end_, round_begin_ns_);
      tracer_->open(Layer::kApiEngine, round_begin_ns_);
    }
  }

  /// The first on_heal of a round: the engine's own work is done; ask
  /// the connectivity question every round's outcome check needs.
  void first_heal(const api::RoundEvent& ev) {
    const graph::DynamicConnectivity* tracker = net_->connectivity_tracker();
    const std::size_t rebuilds = tracker->rebuilds();
    if (tracer_ != nullptr) {
      const std::int64_t t0 = now_ns();
      tracer_->close(t0);
      round_connected_ = ev.connected();
      tracer_->leaf(Layer::kConnectivity, t0, now_ns());
    } else {
      round_connected_ = ev.connected();
    }
    if (tracker->rebuilds() == rebuilds) ++rec_.counts.certified_rounds;
  }

  /// Stamp `i` of the pipeline, after an on_round_end (ev set) or an
  /// on_join (ev null). Stage i-1 ran between stamps i-1 and i.
  void stamp(std::size_t i, const api::RoundEvent* ev) {
    const bool tail = i + 1 == stamps_.size();
    if (tracer_ == nullptr && !tail) return;
    const std::int64_t t = now_ns();
    if (tracer_ != nullptr) {
      if (i == 0 && ev == nullptr) {
        tracer_->open(Layer::kEvent, prev_end_);
        tracer_->leaf(Layer::kApiJoin, prev_end_, t);
      }
      if (i > 0) tracer_->leaf(stages_[i - 1], stamps_[i - 1], t);
      stamps_[i] = t;
    }
    if (!tail) return;
    if (ev != nullptr) {
      rec_.latency_ns.push_back(t - round_begin_ns_);
      check_round();
    } else {
      ++rec_.counts.joins;
    }
    std::int64_t end = t;
    if (reader_ != nullptr) {
      serve_reads();
      end = now_ns();
    }
    prev_end_ = end;
    ++seq_;
    if (tracer_ != nullptr) {
      tracer_->close(end);
      tracer_->set_event(instance_, seq_);
    }
  }

  void finish_stamp(std::size_t i) {
    if (tracer_ == nullptr) return;
    const std::int64_t t = now_ns();
    if (i == 0) tracer_->open(Layer::kFinish, prev_end_);
    if (i > 0) tracer_->leaf(stages_[i - 1], stamps_[i - 1], t);
    stamps_[i] = t;
  }

  // -- forwarding-healer callback (traced passes only) -------------------

  void healed(std::int64_t t0, std::int64_t t1, std::int64_t t2,
              std::size_t ids_rewritten, std::size_t visited) {
    tracer_->leaf(Layer::kCoreHeal, t0, t1);
    tracer_->leaf(Layer::kTraceProbe, t1, t2);
    ++rec_.counts.heal_calls;
    rec_.counts.ids_rewritten += ids_rewritten;
    rec_.counts.gprime_visited += visited;
  }

 private:
  /// A round fails when the network is disconnected after it, when max
  /// delta exceeds Theorem 1's 2 log2 n, or when the invariant battery
  /// reports its first violation on it.
  void check_round() {
    Counts& c = rec_.counts;
    ++c.rounds;
    bool ok = round_connected_ &&
              net_->state().max_delta_ever() <= delta_bound_ + 1e-9;
    if (invariants_ != nullptr && !invariants_->ok() && !violation_seen_) {
      violation_seen_ = true;
      ok = false;
    }
    if (!ok) ++c.failed_rounds;
    if (stretch_ != nullptr && stretch_->sampled_last_round()) {
      ++c.stretch_samples;
    }
  }

  graph::NodeId alive_node() {
    const graph::Graph& g = net_->graph();
    for (;;) {
      const auto v = static_cast<graph::NodeId>(read_rng_.below(g.num_nodes()));
      if (g.alive(v)) return v;
    }
  }

  /// The closed-loop client: after each publish, one pin answers the
  /// label-path mix on seeded alive pairs, then one distance query that
  /// is cross-checked against the labels.
  void serve_reads() {
    for (auto& [u, v] : pairs_) {
      u = alive_node();
      v = alive_node();
    }
    const graph::NodeId du = alive_node();
    const graph::NodeId dv = alive_node();

    const std::int64_t t0 = now_ns();
    api::ServePin pin = reader_->pin();
    std::size_t linked = 0;
    for (const auto& [u, v] : pairs_) linked += pin.connected(u, v) ? 1 : 0;
    const std::size_t largest = pin.largest_component();
    const std::int64_t t1 = now_ns();
    const bool d_linked = pin.connected(du, dv);
    const std::optional<std::uint32_t> d = pin.distance(du, dv);
    const std::int64_t t2 = now_ns();

    Counts& c = rec_.counts;
    c.label_reads += pairs_.size() + 1;
    ++c.distance_reads;
    // The healed network is connected, so every label read must say so.
    if (round_connected_) {
      c.failed_reads += pairs_.size() - linked;
      if (largest != pin.alive()) ++c.failed_reads;
    }
    if (d.has_value() != d_linked) {
      ++c.torn_reads;
      ++c.failed_reads;
    }
    if (tracer_ != nullptr) {
      tracer_->leaf(Layer::kRead, t0, t1);
      tracer_->leaf(Layer::kDistance, t1, t2);
    }
  }

  PassRecord& rec_;
  Tracer* tracer_;
  std::uint32_t instance_;
  std::uint32_t seq_ = 0;
  std::vector<Layer> stages_;
  std::vector<std::int64_t> stamps_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs_;
  Rng read_rng_;

  const api::Network* net_ = nullptr;
  const api::InvariantObserver* invariants_ = nullptr;
  const api::StretchObserver* stretch_ = nullptr;
  api::ServeReader* reader_ = nullptr;
  double delta_bound_ = 0.0;

  std::int64_t prev_end_ = 0;
  std::int64_t round_begin_ns_ = 0;
  bool round_connected_ = true;
  bool violation_seen_ = false;
};

/// A clock stamp registered between two engine observers.
class Stamp final : public api::Observer {
 public:
  Stamp(Probe& probe, std::size_t index) : probe_(probe), index_(index) {}

  std::string name() const override { return "perfbench.stamp"; }
  void on_round_begin(const api::Network&, std::size_t) override {
    if (index_ == 0) probe_.round_begin();
  }
  void on_heal(const api::Network&, const api::RoundEvent& ev) override {
    if (index_ == 0) probe_.first_heal(ev);
  }
  void on_round_end(const api::Network&, const api::RoundEvent& ev) override {
    probe_.stamp(index_, &ev);
  }
  void on_join(const api::Network&, const api::JoinEvent&) override {
    probe_.stamp(index_, nullptr);
  }
  void on_finish(const api::Network&, api::Metrics&) override {
    probe_.finish_stamp(index_);
  }

 private:
  Probe& probe_;
  std::size_t index_;
};

/// Forwards every call to the configured healer and times heal(). After
/// the heal it measures the G' tree the heal's min-id propagation
/// walked (the tree holding the deleted node's neighbors); that probe
/// gets its own span so no layer is charged for it.
class TimedHealer final : public core::HealingStrategy {
 public:
  TimedHealer(std::unique_ptr<core::HealingStrategy> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  bool maintains_forest() const override {
    return inner_->maintains_forest();
  }
  std::unique_ptr<core::HealingStrategy> clone() const override {
    return std::make_unique<TimedHealer>(inner_->clone(), probe_);
  }

  core::HealAction heal(core::Graph& g, core::HealingState& state,
                        const core::DeletionContext& ctx) override {
    const std::int64_t t0 = now_ns();
    core::HealAction action = inner_->heal(g, state, ctx);
    const std::int64_t t1 = now_ns();
    const std::size_t visited =
        ctx.neighbors_g.empty()
            ? 0
            : state.healing_component(g, ctx.neighbors_g.front()).size();
    probe_.healed(t0, t1, now_ns(), action.ids_rewritten, visited);
    return action;
  }

 private:
  std::unique_ptr<core::HealingStrategy> inner_;
  Probe& probe_;
};

// ---- reference kernel ------------------------------------------------------

/// The yardstick of the host's speed: a fixed mix of the kinds of work
/// the library does, in the benchmark's own code and on fixed inputs --
/// breadth-first searches over a random graph of 4096 nodes, a sort, an
/// open-addressing hash table filled and probed, and number formatting.
/// Graph searches alone slow less than the workloads when another
/// thread shares the core; with the sort and the hash probes the kernel
/// slows about as the workloads do (README.md, "Noise"). Nothing is
/// allocated after construction.
class ReferenceKernel {
 public:
  ReferenceKernel() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t v = 1; v < kNodes; ++v) {
      for (int k = 0; k < 2; ++k) {
        edges.emplace_back(v, static_cast<std::uint32_t>(next() % v));
      }
    }
    offsets_.assign(kNodes + 1, 0);
    for (const auto& [u, v] : edges) {
      ++offsets_[u + 1];
      ++offsets_[v + 1];
    }
    for (std::uint32_t v = 0; v < kNodes; ++v) offsets_[v + 1] += offsets_[v];
    targets_.resize(offsets_.back());
    std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const auto& [u, v] : edges) {
      targets_[fill[u]++] = v;
      targets_[fill[v]++] = u;
    }
    dist_.resize(kNodes);
    queue_.resize(kNodes);
    for (std::size_t i = 0; i < kKeys; ++i) {
      const std::uint64_t r = next();
      keys_.push_back(static_cast<std::uint32_t>(r) | 1u);  // 0 marks empty
      reals_.push_back(static_cast<double>(r % 1000003) / 7.0);
    }
    sorted_.resize(kKeys);
    slots_.resize(2 * kKeys);
  }

  /// The faster of two timed runs, in ms.
  double time_ms() { return std::min(run_ms(), run_ms()); }

 private:
  static constexpr std::uint32_t kNodes = 4096;
  static constexpr std::size_t kKeys = 8192;
  static constexpr std::uint32_t kUnseen = ~0u;

  double run_ms() {
    const std::int64_t t0 = now_ns();
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < 4; ++s) sum += search(s * 61);
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    sum += sorted_[kKeys / 2];
    std::fill(slots_.begin(), slots_.end(), 0u);
    for (std::size_t i = 0; i < kKeys / 2; ++i) slots_[slot(keys_[i])] = keys_[i];
    for (std::uint32_t key : keys_) sum += slots_[slot(key)] == key ? 1 : 0;
    char buf[32];
    for (std::size_t i = 0; i < kKeys / 4; ++i) {
      sum += static_cast<std::uint64_t>(
          std::to_chars(buf, buf + sizeof buf, reals_[i]).ptr - buf);
    }
    checksum_ = sum;
    return static_cast<double>(now_ns() - t0) * 1e-6;
  }

  /// Sum of the hop distances from `source`.
  std::uint64_t search(std::uint32_t source) {
    std::fill(dist_.begin(), dist_.end(), kUnseen);
    std::size_t head = 0, tail = 0;
    queue_[tail++] = source;
    dist_[source] = 0;
    std::uint64_t sum = 0;
    while (head < tail) {
      const std::uint32_t v = queue_[head++];
      for (std::uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const std::uint32_t u = targets_[e];
        if (dist_[u] != kUnseen) continue;
        dist_[u] = dist_[v] + 1;
        sum += dist_[u];
        queue_[tail++] = u;
      }
    }
    return sum;
  }

  /// The slot holding `key`, or the empty slot where it would go
  /// (linear probing; the table is at most half full).
  std::size_t slot(std::uint32_t key) const {
    std::size_t h = (key * 2654435761u) % slots_.size();
    while (slots_[h] != 0 && slots_[h] != key) h = (h + 1) % slots_.size();
    return h;
  }

  std::vector<std::uint32_t> offsets_, targets_, dist_, queue_;
  std::vector<std::uint32_t> keys_, sorted_, slots_;
  std::vector<double> reals_;
  volatile std::uint64_t checksum_ = 0;
};

struct RunConfig {
  Workload workload;
  std::uint64_t seed = kDefaultSeed;
  std::string healer = "dash";
};

/// One pass. The reference kernel is timed before each instance's
/// set-up, before its play and after the last play, outside every timed
/// span.
PassRecord run_pass(const RunConfig& cfg, bool traced,
                    ReferenceKernel& kernel) {
  const Workload& w = cfg.workload;
  const api::Scenario scenario = api::Scenario::parse(w.scenario);
  // Reserve every per-event buffer so the timed play allocates nothing
  // of the benchmark's own. At most 10 spans per event: root, gap,
  // engine, heal, probe, connectivity, one per stage (3), reads (2).
  PassRecord rec;
  rec.latency_ns.reserve(w.instances * w.max_events);
  Tracer tracer;
  if (traced) tracer.reserve(w.instances * (w.max_events + 1) * 10);

  std::ostringstream outcome;
  api::JsonSummarySink summary(outcome);
  summary.begin_group({{"workload", w.name},
                       {"seed", std::to_string(cfg.seed)},
                       {"n", std::to_string(w.n)},
                       {"scenario", w.scenario}});

  std::vector<Layer> stages;
  if (w.serve) stages = {Layer::kPublish};
  if (w.analysis) stages = {Layer::kInvariants, Layer::kStretch, Layer::kSink};

  // Instance i draws its graph, ids and scenario stream from
  // fork(i + 1) of the seed, as api::run_suite does; read pairs and the
  // stretch pair sampler come from a second stream of the same seed.
  Rng seeder(cfg.seed);
  Rng side_seeder(cfg.seed ^ 0x7265616470616972ULL);
  for (std::size_t i = 0; i < w.instances; ++i) {
    rec.kernel_ms.push_back(kernel.time_ms());
    Rng side = side_seeder.fork(i + 1);
    Probe probe(rec, traced ? &tracer : nullptr,
                static_cast<std::uint32_t>(i), stages, side.fork(1));

    const std::int64_t setup_begin = now_ns();
    Rng rng = seeder.fork(i + 1);
    graph::Graph g = graph::barabasi_albert(w.n, 2, rng);
    std::unique_ptr<core::HealingStrategy> healer =
        core::make_strategy(cfg.healer);
    if (traced) healer = std::make_unique<TimedHealer>(std::move(healer), probe);
    api::Network net(std::move(g), std::move(healer), rng);

    std::vector<std::unique_ptr<Stamp>> stamps;
    for (std::size_t s = 0; s <= stages.size(); ++s) {
      stamps.push_back(std::make_unique<Stamp>(probe, s));
    }
    api::InvariantObserver invariants(api::InvariantOptions{
        .check_delta_bound = true, .battery_every = kInvariantEvery});
    api::StretchObserver stretch(api::StretchObserverOptions{
        .sample_every = kStretchEvery, .estimate = true,
        .seed = side.next_u64()});
    std::ostringstream csv;
    api::CsvStreamSink csv_sink(csv);
    api::SinkObserver sink(csv_sink, &stretch, i);
    // Declared after the engine, so destroyed first: a reader must not
    // outlive the engine's snapshot store.
    std::optional<api::ServeReader> reader;

    net.add_observer(stamps.front().get());
    if (w.serve) {
      reader.emplace(net.serve().reader());
      net.add_observer(stamps[1].get());
    }
    std::int64_t attach_ns = 0;
    if (w.analysis) {
      net.add_observer(&invariants);
      net.add_observer(stamps[1].get());
      const std::int64_t a0 = now_ns();
      net.add_observer(&stretch);
      attach_ns = now_ns() - a0;
      net.add_observer(stamps[2].get());
      net.add_observer(&sink);
      net.add_observer(stamps[3].get());
    }
    probe.attach(net, w.analysis ? &invariants : nullptr,
                 w.analysis ? &stretch : nullptr,
                 reader ? &*reader : nullptr);
    const std::int64_t setup_end = now_ns();
    rec.setup_ns.push_back(setup_end - setup_begin);
    rec.stretch_attach_ns.push_back(attach_ns);

    rec.kernel_ms.push_back(kernel.time_ms());

    const std::int64_t play_begin = now_ns();
    probe.play_begin(play_begin);
    const api::Metrics m = net.play(scenario, rng);
    const std::int64_t play_end = now_ns();
    probe.play_end(play_end);
    rec.play_ns.push_back(play_end - play_begin);
    rec.rounds_end.push_back(rec.latency_ns.size());

    summary.on_run(i, m);
    Counts& c = rec.counts;
    const graph::Graph& fin = net.graph();
    c.id_space += fin.num_nodes();
    c.alive += fin.num_alive();
    c.slab_size += fin.slab_size();
    c.slab_free += fin.slab_free_entries();
    c.conn_rebuilds += net.connectivity_tracker()->rebuilds();
    c.conn_rescanned += net.connectivity_tracker()->nodes_rescanned();
    if (w.serve) {
      const graph::SnapshotStore& store = net.serve_handle()->store();
      c.full_publishes += store.full_publishes();
      c.patched_publishes += store.patched_publishes();
      c.touched_vertices += store.touched_vertices();
    }
    if (w.analysis) {
      // Every kInvariantEvery-th round plus the end-state sweep.
      c.battery_runs += m.deletions / kInvariantEvery + 1;
      csv_sink.flush();
      c.sink_rows += csv_sink.rows_written();
    }
  }
  rec.kernel_ms.push_back(kernel.time_ms());
  summary.flush();
  rec.outcome = outcome.str();
  rec.spans = tracer.take();
  return rec;
}

// ---- reduction over passes -------------------------------------------------

/// Linear-interpolation percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// The end-to-end timings of one kind of pass (untraced or traced).
/// Each is reported at the reference speed (`scaled`) or in wall time:
/// a scaled time is the wall time multiplied by the instance's
/// PassRecord::setup_scale or play_scale. The passes repeat the same
/// work, so each time is a median over them: the median pass's play and
/// set-up, and for latencies, element k being the same round in every
/// pass, each round's median repetition.
class Reduction {
 public:
  void add(const PassRecord& rec) {
    Pass pass;
    pass.latency_ns.assign(rec.latency_ns.begin(), rec.latency_ns.end());
    pass.rounds_end = rec.rounds_end;
    for (std::size_t i = 0; i < rec.play_ns.size(); ++i) {
      const double s = rec.play_scale(i);
      pass.scale.push_back(s);
      pass.play_ns[0] += static_cast<double>(rec.play_ns[i]);
      pass.play_ns[1] += static_cast<double>(rec.play_ns[i]) * s;
      pass.setup_ns[0] += static_cast<double>(rec.setup_ns[i]);
      pass.setup_ns[1] +=
          static_cast<double>(rec.setup_ns[i]) * rec.setup_scale(i);
    }
    passes_.push_back(std::move(pass));
    events_ = rec.counts.rounds + rec.counts.joins;
  }

  std::size_t passes() const { return passes_.size(); }
  /// Median over the passes of the pass's summed set-up.
  double setup_s(bool scaled) const {
    return median_of([&](const Pass& p) { return p.setup_ns[scaled]; }) * 1e-9;
  }
  /// Events of a pass over the median pass's play time.
  double events_per_s(bool scaled) const {
    return static_cast<double>(events_) /
           (median_of([&](const Pass& p) { return p.play_ns[scaled]; }) * 1e-9);
  }
  /// Percentile q over the rounds of each round's median repetition.
  double event_ms(double q, bool scaled) const {
    std::size_t rounds = passes_.empty() ? 0 : passes_.front().latency_ns.size();
    for (const Pass& p : passes_) rounds = std::min(rounds, p.latency_ns.size());
    std::vector<std::size_t> instance(passes_.size(), 0);
    std::vector<double> per_round(rounds), reps(passes_.size());
    for (std::size_t k = 0; k < rounds; ++k) {
      for (std::size_t j = 0; j < passes_.size(); ++j) {
        const Pass& p = passes_[j];
        while (p.rounds_end[instance[j]] <= k) ++instance[j];
        reps[j] = static_cast<double>(p.latency_ns[k]) *
                  (scaled ? p.scale[instance[j]] : 1.0);
      }
      per_round[k] = percentile(reps, 0.5);
    }
    return percentile(std::move(per_round), q) * 1e-6;
  }

 private:
  struct Pass {
    std::vector<float> latency_ns;
    std::vector<std::size_t> rounds_end;
    std::vector<double> scale;
    double play_ns[2] = {0.0, 0.0};   ///< wall, scaled
    double setup_ns[2] = {0.0, 0.0};  ///< wall, scaled
  };

  template <class F>
  double median_of(F value) const {
    std::vector<double> xs;
    for (const Pass& p : passes_) xs.push_back(value(p));
    return percentile(std::move(xs), 0.5);
  }

  std::vector<Pass> passes_;
  std::size_t events_ = 0;
};

/// Span statistics of the traced passes, per layer, at the reference
/// speed: each span's time multiplied by its instance's scale.
class LayerTally {
 public:
  void add(const PassRecord& rec) {
    const std::vector<Span>& spans = rec.spans;
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Stats& l = layers_[static_cast<std::size_t>(spans[i].layer)];
      const double scale = rec.play_scale(spans[i].instance);
      const double self_ns = static_cast<double>(self[i]) * scale;
      l.total_ns += self_ns;
      l.self_ns.push_back(self_ns);
      if (spans[i].parent < 0) {
        root_ns_ +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns) * scale;
        root_self_ns_ += self_ns;
      }
    }
    ++passes_;
  }

  /// Busy (self) time per pass.
  double ms(Layer l) const { return at(l).total_ns / passes() * 1e-6; }
  double total_s(Layer l) const { return at(l).total_ns / passes() * 1e-9; }
  double us(Layer l, double q) const {
    return percentile(at(l).self_ns, q) * 1e-3;
  }
  double calls(Layer l) const {
    return static_cast<double>(at(l).self_ns.size()) / passes();
  }
  /// Share of the play time that no layer's span claims.
  double unattributed() const { return root_self_ns_ / root_ns_; }
  /// Layer `l`'s self time as a share of the traced play time without
  /// the tracing's own probe: the layer's share of the loop.
  double share(Layer l) const {
    return at(l).total_ns / (root_ns_ - at(Layer::kTraceProbe).total_ns);
  }

 private:
  struct Stats {
    double total_ns = 0.0;
    std::vector<double> self_ns;
  };
  const Stats& at(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  double passes() const { return static_cast<double>(passes_); }

  std::array<Stats, kLayerCount> layers_;
  double root_ns_ = 0.0;
  double root_self_ns_ = 0.0;
  std::size_t passes_ = 0;
};

/// Peak resident set of this process image. Read from VmHWM, not
/// getrusage: ru_maxrss keeps the high-water mark of the image that
/// exec replaced, i.e. of the launching interpreter.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- machine probes ----------------------------------------------------------
//
// Fixed kernels that use no library code, timed in the workload process:
// their times tell a noisy machine from a noisy program.

volatile std::uint64_t probe_sink = 0;

/// 1M xorshift steps in registers: sees the core's speed only.
double machine_probe_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 1000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink = x;
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// `reps` times 100k dependent loads along one random cycle through the
/// cache lines of an 8 MB buffer, four times a core's L2: sees the
/// latency of the shared cache and memory, which other tenants contend
/// for. Its buffer would show in the peak RSS, so it runs after the
/// passes, once the peak is read.
std::vector<double> machine_probe_mem_ms(int reps) {
  constexpr std::size_t kLines = (8u << 20) / 64;
  constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);
  std::vector<std::uint32_t> order(kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kLines - 1; i > 1; --i) {  // Fisher-Yates, fixed seed
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[1 + x % i]);
  }
  std::vector<std::uint32_t> next(kLines * kStride);
  for (std::size_t i = 0; i < kLines; ++i) {
    next[order[i] * kStride] = order[(i + 1) % kLines] * kStride;
  }
  std::vector<double> ms;
  std::uint32_t at = 0;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 100000; ++i) at = next[at];
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  probe_sink = at;
  return ms;
}

/// The CPUs this process may run on; empty if they cannot be read.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Run this process on `cpu` from now on. A failure leaves it where the
/// scheduler put it, which costs steadiness, not correctness.
void move_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A value with all its digits; "nan" when it is not finite, which the
/// run counts as a failure.
std::string number(double v) {
  if (!std::isfinite(v)) return "nan";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::vector<Metric> per_layer(const LayerTally& t, const Counts& c,
                              double stretch_attach_ns,
                              double overhead_frac) {
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  // A ratio over a layer the workload does not run reads 0.
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"attack.select.ms", t.ms(Layer::kAttackSelect), "ms"},
      {"attack.select.p50_us", t.us(Layer::kAttackSelect, 0.50), "us"},
      {"attack.select.p99_us", t.us(Layer::kAttackSelect, 0.99), "us"},
      {"core.heal.calls", n(c.heal_calls), "count"},
      {"core.heal.ms", t.ms(Layer::kCoreHeal), "ms"},
      {"core.heal.p50_us", t.us(Layer::kCoreHeal, 0.50), "us"},
      {"core.heal.p99_us", t.us(Layer::kCoreHeal, 0.99), "us"},
      {"core.heal.ids_rewritten", n(c.ids_rewritten), "count"},
      {"core.heal.gprime_visited", n(c.gprime_visited), "count"},
      {"core.heal.rewrite_frac",
       ratio(n(c.ids_rewritten), n(c.gprime_visited)), "ratio"},
      {"api.engine.ms", t.ms(Layer::kApiEngine), "ms"},
      {"api.engine.p50_us", t.us(Layer::kApiEngine, 0.50), "us"},
      {"api.engine.p99_us", t.us(Layer::kApiEngine, 0.99), "us"},
      {"api.join.calls", n(c.joins), "count"},
      {"api.join.ms", t.ms(Layer::kApiJoin), "ms"},
      {"api.join.p99_us", t.us(Layer::kApiJoin, 0.99), "us"},
      {"graph.connectivity.ms", t.ms(Layer::kConnectivity), "ms"},
      {"graph.connectivity.p99_us", t.us(Layer::kConnectivity, 0.99), "us"},
      {"graph.connectivity.rebuilds", n(c.conn_rebuilds), "count"},
      {"graph.connectivity.nodes_rescanned", n(c.conn_rescanned), "count"},
      {"graph.connectivity.certified_frac",
       ratio(n(c.certified_rounds), n(c.rounds)), "ratio"},
      {"graph.ids.space_ratio", ratio(n(c.id_space), n(c.alive)), "ratio"},
      {"graph.slab.free_frac", ratio(n(c.slab_free), n(c.slab_size)),
       "ratio"},
      {"api.serve.publish.calls", t.calls(Layer::kPublish), "count"},
      {"api.serve.publish.ms", t.ms(Layer::kPublish), "ms"},
      {"api.serve.publish.p50_us", t.us(Layer::kPublish, 0.50), "us"},
      {"api.serve.publish.p99_us", t.us(Layer::kPublish, 0.99), "us"},
      {"graph.snapshot.full", n(c.full_publishes), "count"},
      {"graph.snapshot.patched", n(c.patched_publishes), "count"},
      {"graph.snapshot.touched_per_publish",
       ratio(n(c.touched_vertices), n(c.patched_publishes)), "count"},
      {"api.serve.read.ms", t.ms(Layer::kRead), "ms"},
      {"api.serve.distance.ms", t.ms(Layer::kDistance), "ms"},
      {"api.serve.torn", n(c.torn_reads), "count"},
      {"reads_per_s", ratio(n(c.label_reads), t.total_s(Layer::kRead)),
       "1/s"},
      {"distance_p50_ms", t.us(Layer::kDistance, 0.50) * 1e-3, "ms"},
      {"distance_p99_ms", t.us(Layer::kDistance, 0.99) * 1e-3, "ms"},
      {"analysis.invariants.calls", n(c.battery_runs), "count"},
      {"analysis.invariants.ms", t.ms(Layer::kInvariants), "ms"},
      {"analysis.invariants.p99_us", t.us(Layer::kInvariants, 0.99), "us"},
      {"analysis.stretch.samples", n(c.stretch_samples), "count"},
      {"analysis.stretch.ms", t.ms(Layer::kStretch), "ms"},
      {"analysis.stretch.attach_ms",
       stretch_attach_ns * 1e-6, "ms"},
      {"api.sink.rows", n(c.sink_rows), "count"},
      {"api.sink.ms", t.ms(Layer::kSink), "ms"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
      {"trace.unattributed_frac", t.unattributed(), "ratio"},
  };
}

int usage(const char* why) {
  std::cerr << "perfbench_workload: " << why
            << "\nusage: perfbench_workload --workload "
               "<serve-strike|paper-targeted|churn-joins> --seed <n> "
               "--seconds <s> --trace <0|1> [--expected <file>] "
               "[--write-expected <file>] [--spans <file>] [--tiny] "
               "[--healer <spec>]\n";
  return 2;
}

bool parse_uint(const std::string& s, std::uint64_t& out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
  return r.ec == std::errc{} && r.ptr == s.data() + s.size() && !s.empty();
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 30;
  std::uint64_t trace = 0;
  std::string expected_path, write_expected_path, spans_path;
  std::string healer = "dash";
  bool tiny = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--tiny") {
      tiny = true;
      continue;
    }
    if (a + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++a];
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      if (!parse_uint(val, seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_uint(val, seconds)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!parse_uint(val, trace) || trace > 1) return usage("bad --trace");
    } else if (arg == "--expected") {
      expected_path = val;
    } else if (arg == "--write-expected") {
      write_expected_path = val;
    } else if (arg == "--spans") {
      spans_path = val;
    } else if (arg == "--healer") {
      healer = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const std::optional<Workload> workload = find_workload(workload_name, tiny);
  if (!workload) return usage(("unknown workload '" + workload_name + "'").c_str());
  const RunConfig cfg{*workload, seed, healer};

  ReferenceKernel kernel;
  if (!write_expected_path.empty()) {
    std::ofstream(write_expected_path, std::ios::binary)
        << run_pass(cfg, false, kernel).outcome;
    std::cerr << "wrote " << write_expected_path << "\n";
    return 0;
  }

  // The workload's passes, untraced only or alternating untraced and
  // traced with --trace 1; --seconds stops the run early once the
  // minimum ran. Each kind of pass visits the allowed CPUs in turn.
  // Each pass is checked and folded in as it finishes.
  // Outcome gate: every pass reproduces the first pass's bytes, and at
  // the default seed and size the first pass matches the expected bytes.
  Reduction untraced, traced;
  LayerTally layers;
  std::string outcome;
  Counts counts, traced_counts;
  double stretch_attach_ns = 0.0;
  std::vector<Span> first_spans;
  std::vector<double> probe_ms, kernel_ms;
  std::size_t attempted = 0, failed = 0;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds) * 1000000000;
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t kinds = trace + 1;
  std::size_t p = 0;
  for (; p < cfg.workload.passes; ++p) {
    if (!cpus.empty()) move_to_cpu(cpus[(p / kinds) % cpus.size()]);
    for (int k = 0; k < 3; ++k) probe_ms.push_back(machine_probe_ms());
    const bool is_traced = trace == 1 && p % 2 == 1;
    PassRecord rec = run_pass(cfg, is_traced, kernel);
    kernel_ms.insert(kernel_ms.end(), rec.kernel_ms.begin(),
                     rec.kernel_ms.end());
    const Counts& c = rec.counts;
    attempted += c.rounds + c.joins + c.label_reads + c.distance_reads;
    failed += c.failed_rounds + c.failed_reads;
    if (p == 0) {
      outcome = rec.outcome;
      counts = c;
    } else {
      ++attempted;
      if (rec.outcome != outcome || c.rounds != counts.rounds ||
          c.joins != counts.joins) {
        ++failed;
        std::cerr << "pass " << p << ": outcome differs from pass 0\n";
      }
    }
    if (is_traced) {
      layers.add(rec);
      traced.add(rec);
      if (traced.passes() == 1) {
        traced_counts = c;
        for (std::size_t i = 0; i < rec.stretch_attach_ns.size(); ++i) {
          stretch_attach_ns +=
              static_cast<double>(rec.stretch_attach_ns[i]) *
              rec.setup_scale(i);
        }
        first_spans = std::move(rec.spans);
      }
    } else {
      untraced.add(rec);
    }
    const bool minimum = trace == 1 ? traced.passes() >= kMinTracedPasses &&
                                          untraced.passes() >= kMinTracedPasses
                                    : untraced.passes() >= kMinPasses;
    if (minimum && now_ns() - start >= budget) {
      ++p;
      break;
    }
  }
  // Read before the reductions allocate: the peak is the passes'.
  const double rss_mb = peak_rss_mb();
  if (p < cfg.workload.passes) {
    std::cerr << "perfbench_workload: --seconds " << seconds
              << " ran out after " << p << " of " << cfg.workload.passes
              << " passes\n";
  }
  if (seed == kDefaultSeed && !tiny && healer == "dash") {
    ++attempted;
    std::ifstream in(expected_path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (!in || want.str() != outcome) {
      ++failed;
      std::cerr << "outcome differs from the expected bytes in '"
                << expected_path << "'\n";
    }
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {{"setup_s", untraced.setup_s(true), "s"},
               {"events_per_s", untraced.events_per_s(true), "1/s"},
               {"event_p50_ms", untraced.event_ms(0.50, true), "ms"},
               {"event_p99_ms", untraced.event_ms(0.99, true), "ms"},
               {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    metrics = per_layer(
        layers, traced_counts, stretch_attach_ns,
        1.0 - traced.events_per_s(true) / untraced.events_per_s(true));
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      write_spans(out, first_spans);
    }
  }
  const std::vector<double> probe_mem_ms = machine_probe_mem_ms(9);
  // A metric that is not a number is a broken measurement, not a value.
  for (const Metric& m : metrics) {
    ++attempted;
    if (!std::isfinite(m.value)) {
      ++failed;
      std::cerr << "metric " << m.name << " is not finite\n";
    }
  }

  std::cout << "perfbench " << cfg.workload.name << " seed=" << seed
            << " passes=" << untraced.passes() << " untraced + "
            << traced.passes() << " traced\n"
            << "info rounds " << counts.rounds << " count\n"
            << "info joins " << counts.joins << " count\n"
            << "info failed_frac "
            << number(static_cast<double>(failed) /
                      static_cast<double>(attempted))
            << " ratio\n"
            << "info machine_probe_ms " << number(percentile(probe_ms, 0.5))
            << " ms\n"
            << "info machine_probe_mem_ms "
            << number(percentile(probe_mem_ms, 0.5)) << " ms\n"
            << "info reference_kernel_ms "
            << number(percentile(kernel_ms, 0.5)) << " ms\n"
            << "info wall.setup_s " << number(untraced.setup_s(false))
            << " s\n"
            << "info wall.events_per_s "
            << number(untraced.events_per_s(false)) << " 1/s\n"
            << "info wall.event_p50_ms "
            << number(untraced.event_ms(0.50, false)) << " ms\n"
            << "info wall.event_p99_ms "
            << number(untraced.event_ms(0.99, false)) << " ms\n";
  if (trace == 1) {
    // Where the play time went, layer by layer.
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const auto layer = static_cast<Layer>(l);
      if (layer == Layer::kEvent || layer == Layer::kFinish ||
          layer == Layer::kTraceProbe) {
        continue;
      }
      std::cout << "info share." << kLayerNames[l] << ' '
                << number(layers.share(layer)) << " ratio\n";
    }
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << ' ' << number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = metrics[i].value;
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << (std::isfinite(v) ? number(v) : "null")
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 2;
  }
}
