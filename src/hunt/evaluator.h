// evaluator.h -- the hunt's fitness harness and budget ledger.
//
// A candidate AttackGenome is scored by actually playing it: the
// evaluator expands each genome into one exp::ExperimentSpec cell per
// healer (family x n fixed by the HuntConfig) and runs the grid through
// the very machinery the lab uses everywhere else -- exp::run, whose
// one ThreadPool runs the batch's cells and their instances. A cell's
// BENCH group bytes do not depend on the thread count, so fitness --
// parsed from those bytes -- and therefore the whole search trajectory
// is identical regardless of how the evaluations were scheduled.
//
// Budget semantics: every *distinct* genome spec requested charges the
// budget once, at first request, and is stamped with its request order.
// Re-requests (elites re-scored each generation, greedy revisiting a
// neighbor) are free cache hits. Once the budget is spent, further new
// specs score kUnscored and are not recorded -- the leaderboard is
// exactly the first `budget` distinct candidates the strategy asked
// about, which is what makes "500 evaluations" a hard, comparable cap.
//
// The spool (<state_dir>/spool.tsv) persists every computed score with
// its group bytes, stamped with a hash of the evaluation identity
// (family, n, healers, instances, seed, ...). --resume reloads it as a
// warm cache: the strategy replays the same trajectory, skipping the
// replays it already paid for. A torn final record (an interrupted
// write) is dropped and recomputed; a malformed record before it
// throws std::invalid_argument naming the file and the line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/spec.h"
#include "hunt/genome.h"

namespace dash::hunt {

/// What "worst case" means: a weighted sum of per-run metrics, averaged
/// over every run (instance x healer) of the candidate.
///
///   delta * w_delta + stretch * w_stretch
///     + (disconnected ? 1 + 1/(1 + deletions) : 0) * w_disconnect
///
/// The disconnect term rewards *early* disconnection: any disconnect
/// scores at least 1, and fewer deletions-to-disconnect scores higher.
struct FitnessSpec {
  double w_delta = 1.0;
  double w_stretch = 0.0;
  double w_disconnect = 0.0;
  std::string text = "delta";  ///< canonical spelling

  /// "delta" | "stretch" | "disconnect" | "combo:<wd>,<ws>,<wc>".
  /// Throws std::invalid_argument on unknown names, malformed or
  /// negative weights, and all-zero combos.
  static FitnessSpec parse(const std::string& spec);

  bool needs_stretch() const { return w_stretch > 0.0; }
};

/// Everything one hunt needs: the target (family x n x healers), the
/// search (strategy, budget, seed), the scoring (fitness), and the
/// plumbing (threads, spool dir, trace dir).
struct HuntConfig {
  std::string name = "hunt";

  // -- target ---------------------------------------------------------
  std::string family = "ba";
  std::size_t n = 64;
  std::size_t ba_edges = 2;
  std::vector<std::string> healers = {"dash"};
  std::size_t instances = 2;  ///< paired seeds per exp convention
  std::uint64_t seed = 0xDA5B;
  /// Stretch sampling cadence; 0 = auto (8 when the fitness needs
  /// stretch, off otherwise).
  std::size_t stretch_every = 0;

  // -- search ---------------------------------------------------------
  std::string fitness = "delta";
  std::string strategy = "evolve";
  std::size_t budget = 200;  ///< distinct genomes evaluated, hard cap
  std::size_t top_k = 3;

  // -- plumbing -------------------------------------------------------
  /// exp::run pool width (0 = hardware, 1 = sequential).
  std::size_t threads = 1;
  /// Spool/resume dir; empty disables the spool (and --resume).
  std::string state_dir;
  bool resume = false;
  /// Where run_hunt drops the best-k traces; empty = state_dir; both
  /// empty = no traces.
  std::string trace_dir;
  /// Progress sink (one line per evaluation batch); null = silent.
  std::function<void(const std::string&)> progress;
};

/// One scored candidate as the leaderboard sees it.
struct Evaluated {
  std::size_t order = 0;  ///< first-request index (budget position)
  AttackGenome genome;
  double fitness = 0.0;
  /// One BENCH group per healer cell, in healer order -- the exact
  /// bytes a sequential exp::run of that cell emits.
  std::vector<std::string> groups;
};

class Evaluator {
 public:
  /// Sentinel for over-budget / unscorable candidates.
  static constexpr double kUnscored =
      -std::numeric_limits<double>::infinity();

  /// Validates the config eagerly (family, healers, fitness, budget)
  /// and loads the spool when resuming. Throws std::invalid_argument.
  explicit Evaluator(HuntConfig cfg);

  /// Score a batch. Fresh specs are replayed together as one experiment
  /// grid (that is where the parallelism lives); cached and repeated
  /// specs cost nothing. Returns one fitness per input, kUnscored for
  /// candidates that arrived after the budget ran out.
  std::vector<double> evaluate(const std::vector<AttackGenome>& pop);
  double evaluate_one(const AttackGenome& genome);

  std::size_t evaluations() const { return used_; }
  std::size_t budget() const { return cfg_.budget; }
  bool exhausted() const { return used_ >= cfg_.budget; }

  /// Budgeted candidates ordered by (fitness desc, request order asc),
  /// truncated to k.
  std::vector<Evaluated> leaderboard(std::size_t k) const;

  /// The grid cells a genome is scored on, in healer order -- their
  /// seeds are what trace re-recording reproduces.
  std::vector<exp::Cell> cells_for(const AttackGenome& genome) const;

  const FitnessSpec& fitness() const { return fitness_; }
  const HuntConfig& config() const { return cfg_; }
  std::size_t stretch_every() const { return stretch_every_; }

  /// Hash over every field that changes what a score *means* (family,
  /// n, ba_edges, healers, instances, seed, stretch cadence, fitness).
  /// Stamps the spool header so a resume cannot mix incompatible runs.
  std::string config_hash() const;

 private:
  struct Score {
    double fitness = 0.0;
    std::vector<std::string> groups;
  };

  exp::ExperimentSpec base_spec(std::vector<std::string> scenarios) const;
  void compute(const std::vector<std::string>& specs);
  double score_groups(const std::vector<std::string>& groups) const;
  void load_spool();
  void append_spool(const std::string& spec, const Score& score);

  HuntConfig cfg_;
  FitnessSpec fitness_;
  std::size_t stretch_every_ = 0;
  std::map<std::string, Score> computed_;     ///< spec -> score (cache)
  std::map<std::string, Evaluated> requested_;  ///< spec -> ledger entry
  std::size_t used_ = 0;
  std::ofstream spool_;
};

}  // namespace dash::hunt
