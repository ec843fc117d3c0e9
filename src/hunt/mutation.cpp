#include "hunt/mutation.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dash::hunt {

namespace {

/// Rates live on a 1/20 grid: mutations step them by 0.05, keeping
/// specs short and the neighborhood finite.
double random_rate(util::Rng& rng) {
  return static_cast<double>(rng.below(21)) / 20.0;
}

double step_rate(double rate, util::Rng& rng) {
  const double stepped =
      rate + (rng.below(2) == 0 ? 0.05 : -0.05);
  const double clamped = std::clamp(stepped, 0.0, 1.0);
  return std::round(clamped * 20.0) / 20.0;  // stay on the grid
}

std::size_t jitter_count(std::size_t count, std::size_t max,
                         util::Rng& rng) {
  const std::size_t delta =
      1 + static_cast<std::size_t>(
              rng.below(std::max<std::uint64_t>(1, count / 4)));
  if (rng.below(2) == 0) return std::min(max, count + delta);
  return count > delta ? count - delta : 1;
}

std::size_t jitter_attach(std::size_t attach, util::Rng& rng) {
  const std::size_t stepped =
      rng.below(2) == 0 ? attach + 1 : (attach > 1 ? attach - 1 : 1);
  return std::clamp<std::size_t>(stepped, 1, genome_limits().max_attach);
}

const std::string& pick_attack(util::Rng& rng) {
  const auto& alphabet = strike_alphabet();
  return alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
}

void perturb_move(Move& m, util::Rng& rng);

void perturb_mix_arm(Move& m, util::Rng& rng) {
  if (m.mix_arms.empty()) return;
  auto& arm =
      m.mix_arms[static_cast<std::size_t>(rng.below(m.mix_arms.size()))];
  if (rng.below(2) == 0) {
    // weight step
    const std::uint64_t stepped =
        rng.below(2) == 0 ? arm.first + 1
                          : (arm.first > 1 ? arm.first - 1 : 1);
    arm.first = std::min(stepped, genome_limits().max_weight);
    return;
  }
  perturb_move(arm.second, rng);
}

void perturb_move(Move& m, util::Rng& rng) {
  const auto& limits = genome_limits();
  switch (m.kind) {
    case Move::Kind::kStrike:
      if (rng.below(2) == 0) {
        m.attack = pick_attack(rng);
      } else {
        m.count = jitter_count(m.count, limits.max_count, rng);
      }
      break;
    case Move::Kind::kBatch:
      switch (rng.below(3)) {
        case 0:
          m.batch_size = std::clamp<std::size_t>(
              rng.below(2) == 0 ? m.batch_size + 1
                                : (m.batch_size > 1 ? m.batch_size - 1
                                                    : 1),
              1, limits.max_batch);
          break;
        case 1:
          m.batch_mode = m.batch_mode == "hubs" ? "random" : "hubs";
          break;
        default:
          m.count = jitter_count(m.count, limits.max_count, rng);
      }
      break;
    case Move::Kind::kChurn:
      switch (rng.below(3)) {
        case 0:
          if (rng.below(2) == 0) {
            m.join_rate = step_rate(m.join_rate, rng);
          } else {
            m.leave_rate = step_rate(m.leave_rate, rng);
          }
          break;
        case 1:
          m.attach = jitter_attach(m.attach, rng);
          break;
        default:
          m.count = jitter_count(m.count, limits.max_count, rng);
      }
      break;
    case Move::Kind::kJoin:
      if (rng.below(2) == 0) {
        m.attach = jitter_attach(m.attach, rng);
      } else {
        m.count = jitter_count(m.count, limits.max_count, rng);
      }
      break;
    case Move::Kind::kRamp:
      switch (rng.below(3)) {
        case 0:
          switch (rng.below(4)) {
            case 0: m.join_rate = step_rate(m.join_rate, rng); break;
            case 1: m.leave_rate = step_rate(m.leave_rate, rng); break;
            case 2:
              m.join_rate_end = step_rate(m.join_rate_end, rng);
              break;
            default:
              m.leave_rate_end = step_rate(m.leave_rate_end, rng);
          }
          break;
        case 1:
          m.attach = jitter_attach(m.attach, rng);
          break;
        default:
          m.count = jitter_count(m.count, limits.max_count, rng);
      }
      break;
    case Move::Kind::kMix:
      if (rng.below(3) == 0) {
        m.count = jitter_count(m.count, limits.max_count, rng);
      } else {
        perturb_mix_arm(m, rng);
      }
      break;
  }
}

}  // namespace

const std::vector<std::string>& strike_alphabet() {
  static const std::vector<std::string> alphabet = {
      "maxnode",  "neighborofmax", "random",     "minnode",
      "maxdelta", "rank:2",        "rank:3",     "rank:4",
      "adaptive", "adaptive:1",    "adaptive:3",
  };
  return alphabet;
}

Move random_move(util::Rng& rng, bool allow_mix) {
  Move m;
  m.kind = static_cast<Move::Kind>(rng.below(allow_mix ? 6 : 5));
  switch (m.kind) {
    case Move::Kind::kStrike:
      m.attack = pick_attack(rng);
      m.count = 1 + static_cast<std::size_t>(rng.below(40));
      break;
    case Move::Kind::kBatch:
      m.batch_size = 2 + static_cast<std::size_t>(rng.below(7));
      m.batch_mode = rng.below(2) == 0 ? "hubs" : "random";
      m.count = 1 + static_cast<std::size_t>(rng.below(6));
      break;
    case Move::Kind::kChurn:
      m.join_rate = random_rate(rng);
      m.leave_rate = random_rate(rng);
      m.attach = 1 + static_cast<std::size_t>(rng.below(3));
      m.count = 5 + static_cast<std::size_t>(rng.below(96));
      break;
    case Move::Kind::kJoin:
      m.attach = 1 + static_cast<std::size_t>(rng.below(4));
      m.count = 1 + static_cast<std::size_t>(rng.below(24));
      break;
    case Move::Kind::kRamp:
      m.join_rate = random_rate(rng);
      m.leave_rate = random_rate(rng);
      m.join_rate_end = random_rate(rng);
      m.leave_rate_end = random_rate(rng);
      m.attach = 1 + static_cast<std::size_t>(rng.below(3));
      m.count = 5 + static_cast<std::size_t>(rng.below(96));
      break;
    case Move::Kind::kMix: {
      const std::size_t arms = 2;
      for (std::size_t i = 0; i < arms; ++i) {
        Move inner = random_move(rng, /*allow_mix=*/false);
        m.mix_arms.emplace_back(1 + rng.below(3), std::move(inner));
      }
      m.count = 2 + static_cast<std::size_t>(rng.below(14));
      break;
    }
  }
  return m;
}

AttackGenome random_genome(util::Rng& rng, std::size_t max_moves) {
  const std::size_t cap =
      std::min(std::max<std::size_t>(1, max_moves),
               genome_limits().max_moves);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.below(cap));
  std::vector<Move> moves;
  moves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) moves.push_back(random_move(rng));
  return AttackGenome(std::move(moves));
}

void mutate_genome(AttackGenome& genome, util::Rng& rng) {
  auto& moves = genome.moves();
  if (moves.empty()) {
    moves.push_back(random_move(rng));
    return;
  }
  const auto op = rng.below(6);
  const std::size_t i = static_cast<std::size_t>(rng.below(moves.size()));
  switch (op) {
    case 0:  // replace
      moves[i] = random_move(rng);
      break;
    case 1:  // insert (replace when full)
      if (moves.size() < genome_limits().max_moves) {
        moves.insert(moves.begin() + static_cast<std::ptrdiff_t>(i),
                     random_move(rng));
      } else {
        moves[i] = random_move(rng);
      }
      break;
    case 2:  // delete (replace when it is the last move)
      if (moves.size() > 1) {
        moves.erase(moves.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        moves[i] = random_move(rng);
      }
      break;
    case 3:  // swap with a neighbor
      if (moves.size() > 1) {
        const std::size_t j = i + 1 == moves.size() ? i - 1 : i + 1;
        std::swap(moves[i], moves[j]);
      }
      break;
    case 4:  // duplicate
      if (moves.size() < genome_limits().max_moves) {
        moves.insert(moves.begin() + static_cast<std::ptrdiff_t>(i),
                     moves[i]);
      }
      break;
    default:  // parameter perturbation
      perturb_move(moves[i], rng);
  }
}

AttackGenome crossover(const AttackGenome& a, const AttackGenome& b,
                       util::Rng& rng) {
  const std::size_t cut_a =
      static_cast<std::size_t>(rng.below(a.size() + 1));
  const std::size_t cut_b =
      static_cast<std::size_t>(rng.below(b.size() + 1));
  std::vector<Move> child(
      a.moves().begin(),
      a.moves().begin() + static_cast<std::ptrdiff_t>(cut_a));
  child.insert(child.end(),
               b.moves().begin() + static_cast<std::ptrdiff_t>(cut_b),
               b.moves().end());
  if (child.empty()) child.push_back(random_move(rng));
  if (child.size() > genome_limits().max_moves) {
    child.resize(genome_limits().max_moves);
  }
  return AttackGenome(std::move(child));
}

}  // namespace dash::hunt
