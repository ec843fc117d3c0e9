// hunt.h -- the adversary search engine's one-call driver.
//
// run_hunt() wires the pieces together: an Evaluator (fitness harness
// + budget ledger, evaluator.h), a SearchStrategy (strategy.h), and
// artifact emission. It returns -- and writes -- two things:
//
//   * A leaderboard document in BENCH format (HUNT_*.json): the top-k
//     candidates' groups, each stamped with "rank" and "fitness"
//     labels, so every plotting / comparison tool that reads BENCH
//     output reads hunt output unchanged.
//
//   * The best-k schedules as replayable traces: each winner is
//     re-recorded through replay::RecorderSink by reproducing the
//     exact RNG stream of its evaluation cell's instance 0, so the
//     emitted trace replays bit-identically standalone (`dash_lab
//     replay`) *and* reproduces the scored run when loaded back into a
//     grid cell via `scenario=trace:<file>` with the same seed.
//
// level_attack_baseline() plays the paper's hand-derived Algorithm-2
// adversary (attack::LevelAttack) so a hunt's fitness can be compared
// against the analytical lower-bound construction at the same n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hunt/evaluator.h"

namespace dash::hunt {

/// One leaderboard entry as surfaced to callers.
struct HuntBest {
  std::size_t rank = 0;  ///< 1-based
  AttackGenome genome;
  double fitness = 0.0;
  std::string trace_path;  ///< empty when trace emission was off
};

struct HuntResult {
  std::vector<HuntBest> best;      ///< top-k, best first
  std::size_t evaluations = 0;     ///< distinct genomes scored
  std::string leaderboard_json;    ///< BENCH document with rank/fitness
  std::string leaderboard_path;    ///< written file; empty when not persisted
};

/// Search cfg.budget distinct genomes with cfg.strategy, then emit the
/// leaderboard (written to <state_dir>/HUNT_<name>.json when state_dir
/// is set) and the best-k traces (into trace_dir, falling back to
/// state_dir; skipped when both are empty). Deterministic in cfg: the
/// same config produces byte-identical artifacts whether evaluations
/// ran sequentially or on a ThreadPool of any width.
HuntResult run_hunt(const HuntConfig& cfg);

/// The analytical adversary's score, for baseline comparison.
struct LevelBaseline {
  std::size_t nodes = 0;   ///< tree size actually used (<= requested n)
  std::size_t depth = 0;
  std::uint32_t m = 0;
  double fitness = 0.0;    ///< max_delta the LevelAttack run achieved
};

/// Play attack::LevelAttack against the m-degree-bounded healer on the
/// largest complete (m+2)-ary tree with at most n nodes. Throws
/// std::invalid_argument when n cannot hold a depth-1 tree (n < m+3).
LevelBaseline level_attack_baseline(std::size_t n, std::uint32_t m,
                                    std::uint64_t seed);

}  // namespace dash::hunt
