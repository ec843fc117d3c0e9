// observers.h -- the built-in measurement observers:
//
//   InvariantObserver -- the full per-round invariant battery
//                        (+ optional DASH-only rem / delta bounds),
//                        amortizable via InvariantOptions::battery_every
//   ComponentObserver -- per-round component count / largest component
//                        via the engine's incremental tracker
//   StretchObserver   -- Fig. 10 stretch sampling against the time-0
//                        network
//
// Per-round *output* (time series, CSV streams, JSON summaries) is the
// sink layer's job: see api/sink.h for MetricSink and the SinkObserver
// pipeline stage that feeds it. Register producers before consumers: a
// SinkObserver that should log stretch samples must come after its
// StretchObserver.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>

#include "analysis/invariants.h"
#include "analysis/stretch.h"
#include "analysis/stretch_estimator.h"
#include "api/network.h"
#include "api/observer.h"

namespace dash::api {

struct InvariantOptions {
  /// Lemma-4 rem bound is DASH-specific; opt-in.
  bool check_rem_bound = false;
  /// Theorem-1 delta <= 2 log2 n bound; proven for DASH only, opt-in.
  bool check_delta_bound = false;
  /// Cadence of the full battery: 1 (default) runs it every
  /// round and every join; k > 1 amortizes it over every k-th round
  /// (joins skipped); 0 disables the periodic battery entirely. The
  /// per-round *connectivity* ask is unaffected -- it always happens
  /// and is O(alpha) on engines in tracker mode. Whenever the cadence
  /// skips events (anything but 1), a final battery sweep still runs
  /// in on_finish, so end-state violations are never missed; only
  /// per-event locality records of skipped events go unchecked.
  std::size_t battery_every = 1;
};

/// Evaluates the invariant battery after every round (and every join);
/// remembers the first violation and contributes it to Metrics. A
/// battery is the round's locality check, one O(n + |E'|) walk of G'
/// (analysis::HealingForestWalk, whose scratch this observer keeps)
/// and the O(1) delta bound. Measured on BA(n, 2) after n/2
/// neighborofmax deletions (bench/million_core, median of five): about
/// 59 ms a battery at n = 10^6 with the rem bound off and 85 ms with
/// it on; at the default cadence that is every round, so large runs
/// amortize it with battery_every.
class InvariantObserver final : public Observer {
 public:
  explicit InvariantObserver(InvariantOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return "invariants"; }
  void on_attach(const Network& net) override;
  void on_round_end(const Network& net, const RoundEvent& ev) override;
  void on_join(const Network& net, const JoinEvent& ev) override;
  void on_finish(const Network& net, Metrics& out) override;

  bool ok() const { return violation_.empty(); }
  /// First violation encountered (empty if none).
  const std::string& violation() const { return violation_; }

 private:
  void run_battery(const Network& net, const RoundEvent* ev);

  InvariantOptions opts_;
  std::size_t initial_size_ = 0;
  std::string violation_;
  analysis::HealingForestWalk forest_walk_;  ///< scratch reused per battery
};

/// Samples the component structure (count + largest component) after
/// every round and join through the engine's tracker-backed component
/// queries (O(alpha) amortized per ask). Tracks the extremes over the
/// run: peak fragmentation and the smallest largest-component seen
/// (both including the initial state).
class ComponentObserver final : public Observer {
 public:
  std::string name() const override { return "components"; }
  void on_attach(const Network& net) override;
  void on_round_end(const Network& net, const RoundEvent& ev) override;
  void on_join(const Network& net, const JoinEvent& ev) override;

  /// Component count / largest size after the last observed event.
  std::size_t count() const { return count_; }
  std::size_t largest() const { return largest_; }
  /// Max component count ever observed (1 while the network heals).
  std::size_t max_components_seen() const { return max_components_; }
  /// Min largest-component size ever observed.
  std::size_t min_largest_seen() const { return min_largest_; }

 private:
  void sample(const Network& net);

  std::size_t count_ = 0;
  std::size_t largest_ = 0;
  std::size_t max_components_ = 0;
  std::size_t min_largest_ = std::numeric_limits<std::size_t>::max();
};

struct StretchObserverOptions {
  /// Sample every k-th deletion round (0 is clamped to 1).
  std::size_t sample_every = 1;
  /// Landmark estimation instead of the exact tracker: O(landmarks*n)
  /// memory in place of O(n^2), and in place of APSP one 64-source wave
  /// per sample that records depths only at the sampled pairs'
  /// endpoints and stops once they are settled -- the only mode that
  /// scales to million-node networks.
  /// Samples then report the *upper* bound of the estimator's stretch
  /// interval (the conservative side; the true value is contained).
  bool estimate = false;
  std::size_t landmarks = 16;  ///< estimate mode: landmark count (<= 64)
  std::size_t pairs = 256;     ///< estimate mode: pairs per sample
  std::uint64_t seed = 0x5eed; ///< estimate mode: pair-sampling seed
};

/// Samples the Section 4.6.1 stretch metric against the time-0 network
/// every `sample_every`-th deletion (stretch costs O(n*m) per sample).
/// `sample_every == 0` is clamped to 1. Needs O(n^2) baseline memory
/// in exact mode; estimate mode (StretchObserverOptions::estimate)
/// swaps the tracker for analysis::StretchEstimator's landmark bounds.
/// Each exact sample is one single-pass analysis::StretchTracker::
/// stretch_stats() -- max and average together, never APSP twice.
///
/// Stretch is only defined relative to the frozen time-0 distances, so
/// sampling stops permanently once a join grows the node-id space (the
/// newcomers have no original distance); max_stretch() then reports
/// the pre-join maximum.
class StretchObserver final : public Observer {
 public:
  explicit StretchObserver(StretchObserverOptions opts)
      : opts_(opts),
        sample_every_(opts.sample_every == 0 ? 1 : opts.sample_every) {}

  explicit StretchObserver(std::size_t sample_every = 1)
      : StretchObserver(
            StretchObserverOptions{.sample_every = sample_every}) {}

  std::string name() const override { return "stretch"; }
  void on_attach(const Network& net) override;
  void on_round_end(const Network& net, const RoundEvent& ev) override;
  void on_join(const Network& net, const JoinEvent& ev) override;
  void on_finish(const Network& net, Metrics& out) override;

  double max_stretch() const { return max_stretch_; }
  /// Last sampled value (0 before the first sample).
  double last_sample() const { return last_sample_; }
  /// Average stretch of the last sample (0 before the first sample);
  /// rides along with the max in the same APSP pass.
  double last_average() const { return last_average_; }
  bool sampled_last_round() const { return sampled_last_round_; }
  /// False once a join froze sampling.
  bool active() const { return active_; }
  /// True when samples are landmark estimates, not exact values.
  bool estimating() const { return opts_.estimate; }
  /// Full interval of the last estimate-mode sample (all-zero before
  /// the first sample or in exact mode).
  const analysis::StretchEstimate& last_estimate() const {
    return last_estimate_;
  }

 private:
  StretchObserverOptions opts_;
  std::size_t sample_every_;
  std::optional<analysis::StretchTracker> tracker_;
  std::optional<analysis::StretchEstimator> estimator_;
  analysis::StretchEstimate last_estimate_;
  double max_stretch_ = 0.0;
  double last_sample_ = 0.0;
  double last_average_ = 0.0;
  bool sampled_last_round_ = false;
  bool active_ = true;
};

}  // namespace dash::api
