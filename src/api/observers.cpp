#include "api/observers.h"

#include <algorithm>

#include "graph/traversal.h"

namespace dash::api {

using analysis::Check;

// ---- InvariantObserver ----------------------------------------------

void InvariantObserver::on_attach(const Network& net) {
  initial_size_ = net.initial_size();
}

void InvariantObserver::run_battery(const Network& net,
                                    const RoundEvent* ev) {
  if (!violation_.empty()) return;  // keep the first violation
  Check c = Check::pass();
  if (ev != nullptr && ev->ctx != nullptr && ev->action != nullptr) {
    c = analysis::check_locality(*ev->action, *ev->ctx);
  }
  if (c.ok) {
    c = forest_walk_.check(
        net.graph(), net.state(),
        {.require_forest = net.healer().maintains_forest(),
         .check_rem_bound = opts_.check_rem_bound});
  }
  if (c.ok && opts_.check_delta_bound) {
    c = analysis::check_delta_bound(net.state(), initial_size_);
  }
  if (!c.ok) violation_ = c.violation;
}

void InvariantObserver::on_round_end(const Network& net,
                                     const RoundEvent& ev) {
  // The connectivity guarantee is checked every round -- asking the
  // event is O(alpha) on tracker-mode engines, and the engine folds
  // the answer into Metrics::stayed_connected.
  if (violation_.empty() && !ev.connected()) {
    violation_ = "network disconnected after round " +
                 std::to_string(ev.round);
  }
  if (opts_.battery_every != 0 && ev.round % opts_.battery_every == 0) {
    run_battery(net, &ev);
  }
}

void InvariantObserver::on_join(const Network& net, const JoinEvent&) {
  // Joins have no round counter to gate on: at the default cadence they
  // keep their per-event battery; any amortized cadence skips them
  // (the every-k-rounds batteries and the on_finish sweep cover it).
  if (opts_.battery_every == 1) run_battery(net, nullptr);
}

void InvariantObserver::on_finish(const Network& net, Metrics& out) {
  // A cadence that skipped rounds still gets one end-state sweep.
  if (opts_.battery_every != 1) run_battery(net, nullptr);
  if (out.violation.empty()) out.violation = violation_;
}

// ---- ComponentObserver ----------------------------------------------

void ComponentObserver::sample(const Network& net) {
  const auto [count, largest] = net.component_snapshot();
  count_ = count;
  largest_ = largest;
  max_components_ = std::max(max_components_, count_);
  min_largest_ = std::min(min_largest_, largest_);
}

void ComponentObserver::on_attach(const Network& net) { sample(net); }

void ComponentObserver::on_round_end(const Network& net,
                                     const RoundEvent&) {
  sample(net);
}

void ComponentObserver::on_join(const Network& net, const JoinEvent&) {
  sample(net);
}

// ---- StretchObserver ------------------------------------------------

void StretchObserver::on_attach(const Network& net) {
  if (opts_.estimate) {
    estimator_.emplace(net.graph(),
                       analysis::StretchEstimatorOptions{
                           .landmarks = opts_.landmarks,
                           .pairs = opts_.pairs,
                           .seed = opts_.seed});
  } else {
    tracker_.emplace(net.graph());
  }
}

void StretchObserver::on_join(const Network&, const JoinEvent&) {
  // The time-0 distance matrix has no rows for joined nodes; any
  // further sample would be over a mismatched id space.
  active_ = false;
}

void StretchObserver::on_round_end(const Network& net,
                                   const RoundEvent& ev) {
  sampled_last_round_ = false;
  if (!active_) return;
  const bool due = ev.round % sample_every_ == 0 ||
                   net.graph().num_alive() <= 2;
  // Check `due` first: only sampled rounds pay for the (lazy)
  // connectivity scan, and stretch is undefined on a disconnected
  // network anyway.
  if (!due || !ev.connected()) return;
  if (opts_.estimate) {
    last_estimate_ = estimator_->estimate(net.graph());
    // Report the conservative (upper) side of the interval; the true
    // max/average stretch of the sampled pairs is contained in it.
    last_sample_ = last_estimate_.max_upper;
    last_average_ = last_estimate_.avg_upper;
  } else {
    const analysis::StretchStats stats =
        tracker_->stretch_stats(net.graph());
    last_sample_ = stats.max;
    last_average_ = stats.average;
  }
  max_stretch_ = std::max(max_stretch_, last_sample_);
  sampled_last_round_ = true;
}

void StretchObserver::on_finish(const Network&, Metrics& out) {
  out.max_stretch = std::max(out.max_stretch, max_stretch_);
}

}  // namespace dash::api
