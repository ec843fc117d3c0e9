// scenario.h -- declarative experiment workloads for the engine.
//
// A Scenario is a value describing *what happens to the network*: an
// ordered list of phases, each a compact event pattern the engine can
// execute, instead of a hand-rolled driver loop. Scenarios come from a
// one-line text spec, and Network::play is the one way to run them:
//
//   api::Scenario sc = api::Scenario::parse("churn:0.3,0.1x500;batch:8x50");
//   api::Network net(std::move(g), "dash", seed);
//   const api::Metrics m = net.play(sc, seed);
//
// Grammar (phases separated by ';', each `name[:args][xCOUNT]`; the
// count is the trailing `x<digits>` of the args):
//
//   strike[:<attack>][xN]        N single deletions picked by <attack>
//                                (default maxnode, N default 1);
//                                strike:N is shorthand for strike xN
//   batch:<k>[,hubs|random][xN]  N simultaneous k-node strikes (the
//                                footnote-1 batch protocol); without
//                                xN, repeat while > k nodes survive
//   churn:<jr>,<lr>[,<a>]xN      N churn ticks; each joins a new node
//                                (wired to <a>=2 random peers) with
//                                probability jr and deletes a random
//                                node with probability lr
//   targeted[:<attack>][xN]      run <attack> until it stops (or xN
//                                deletions) -- the classic full
//                                schedule is `targeted:<attack>`
//   until:<n>[,<attack>]         delete via <attack> until <= n alive
//   untilfrac:<f>[,<attack>]     delete via <attack> until at most
//                                ceil(initial_size * f) nodes survive --
//                                size-relative, so one spec serves every
//                                n of a sweep grid
//   join[:<a>][xN]               N organic arrivals, each wired to
//                                <a>=2 random alive peers (growth
//                                without the leave coin of churn)
//   ramp:<j0>,<l0>,<j1>,<l1>[,<a>]xN
//                                N churn ticks whose join/leave rates
//                                ramp linearly from (j0,l0) to (j1,l1)
//                                -- time-varying churn in one phase
//   mix:<w1>{...},<w2>{...}xN    weighted scenario mixture: N draws,
//                                each picking one nested phase list
//                                with probability w_i / sum(w) and
//                                running it once
//   repeat:<k>{...}              repeat a nested phase list k times
//   floor:<n>                    never delete below n alive nodes
//   trace:<file>                 replay a recorded trace's event
//                                stream (replay/trace_phase.h),
//                                leniently -- dead/out-of-range ids
//                                are filtered per event, so one trace
//                                drives any network size
//
// Named presets (whole phase lists registered under one spelling, e.g.
// "paper-churn", "max-degree-attack", "until-half", "until-quarter")
// parse like any other phase; an unknown name's error lists every
// registered spelling, presets included.
//
// Phase names are served by a util::Registry, so the error for an
// unknown phase lists every registered spelling, and downstream code
// can register its own phases. All randomness a phase consumes is
// drawn from the RNG stream handed to Network::play -- one seed, one
// byte-identical run, which is what makes parallel suites
// (api/suite.h) deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/strategy.h"
#include "util/registry.h"
#include "util/rng.h"

namespace dash::api {

class Network;

/// Knobs for one Network::play() call.
struct PlayOptions {
  /// Checked before every phase event; a true return ends the play
  /// (after which finish() still runs). Use for conditions the phase
  /// grammar cannot express, e.g. "stop at the first disconnection":
  /// `[](const Network& n) { return n.component_count() > 1; }`.
  std::function<bool(const Network&)> stop_condition;
};

/// Mutable per-play state threaded through phase execution.
struct PlayContext {
  Network& net;
  dash::util::Rng& rng;
  /// Deletions never take the network to or below this many alive
  /// nodes (set by the `floor` phase; 1 keeps the last survivor).
  std::size_t floor = 1;
  const PlayOptions* options = nullptr;

  /// True once the play-level stop condition fired; phases must bail
  /// out of their event loops when it does.
  bool stopped() const {
    return options != nullptr && options->stop_condition &&
           options->stop_condition(net);
  }
};

/// One phase of a scenario. Phases never change after construction, so
/// copies of a Scenario (and run_suite's parallel instances) share them;
/// execute() must draw all randomness from ctx.rng.
class ScenarioPhase {
 public:
  virtual ~ScenarioPhase() = default;

  /// Canonical text form (parseable back through Scenario::parse,
  /// except for phases built from custom attacker factories).
  virtual std::string spec() const = 0;

  virtual void execute(PlayContext& ctx) const = 0;
};

/// Builds a per-instance adversary from a derived seed; lets scenarios
/// carry attacks that are not registry-constructible (LevelAttack
/// needs its tree metadata, for example).
using AttackerFactory =
    std::function<std::unique_ptr<attack::AttackStrategy>(std::uint64_t)>;

class Scenario {
 public:
  /// Parse a text spec (grammar above). Throws std::invalid_argument
  /// for empty phases, zero counts, malformed parameters, and unknown
  /// phase names (the error lists every registered spelling).
  static Scenario parse(const std::string& spec);

  /// Append a targeted phase over an adversary the attack registry
  /// cannot build (a LevelAttack needs its tree metadata): it deletes
  /// the nodes `factory`'s attacker picks until the attacker stops, the
  /// deletion floor is reached, or max_deletions deletions (0: no cap).
  /// spec() wraps the label in angle brackets (`targeted:<levelattack>`),
  /// which does not parse back.
  Scenario& targeted(AttackerFactory factory, const std::string& label,
                     std::size_t max_deletions = 0);

  /// Append an externally built phase.
  Scenario& add(std::shared_ptr<const ScenarioPhase> phase);

  // ---- introspection -------------------------------------------------

  /// Canonical spec string: `parse(s).spec()` is a fixed point.
  std::string spec() const;
  bool empty() const { return phases_.empty(); }
  std::size_t size() const { return phases_.size(); }
  const std::vector<std::shared_ptr<const ScenarioPhase>>& phases() const {
    return phases_;
  }

 private:
  std::vector<std::shared_ptr<const ScenarioPhase>> phases_;
};

/// The registry serving phase-name lookups for Scenario::parse.
/// Built-ins: strike (alias delete), batch (aliases batch_strike,
/// batchstrike), churn, targeted (aliases targeted_attack, run), until
/// (aliases until_n_left, untilnleft), untilfrac (alias until_frac),
/// join, ramp, mix, repeat, floor, plus the named presets paper-churn,
/// max-degree-attack, until-half, until-quarter. Case-insensitive;
/// downstream code may register more.
util::Registry<ScenarioPhase>& scenario_phase_registry();

}  // namespace dash::api
