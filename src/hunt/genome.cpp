#include "hunt/genome.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>

#include "attack/factory.h"
#include "util/csv.h"
#include "util/hash.h"

namespace dash::hunt {

namespace {

bool all_digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c); });
}

struct CountSplit {
  std::string head;
  std::size_t count = 0;
  bool has_count = false;
};

/// Split a move's parameter at its trailing `x<digits>` count, exactly
/// like the scenario grammar does ("0.3,0.1x500" -> {"0.3,0.1", 500}).
CountSplit split_count(const std::string& move, const std::string& args) {
  CountSplit out;
  out.head = args;
  const auto pos = args.find_last_of('x');
  if (pos == std::string::npos) return out;
  const std::string suffix = args.substr(pos + 1);
  if (!all_digits(suffix)) return out;
  out.count =
      static_cast<std::size_t>(util::parse_spec_uint(move, suffix));
  out.head = args.substr(0, pos);
  out.has_count = true;
  return out;
}

/// The genome grammar is strict where the scenario grammar is lax:
/// every move carries an explicit bounded count.
std::size_t require_count(const std::string& move, const CountSplit& cs,
                          const std::string& param) {
  const auto max = genome_limits().max_count;
  if (!cs.has_count || cs.count == 0 || cs.count > max) {
    throw std::invalid_argument(
        "hunt move '" + move + ":" + param +
        "' needs an explicit count x<1.." + std::to_string(max) + ">");
  }
  return cs.count;
}

std::size_t parse_ranged(const std::string& move, const std::string& what,
                         const std::string& s, std::size_t min,
                         std::size_t max) {
  const auto v = util::parse_spec_uint(move, s, max);
  if (v < min) {
    throw std::invalid_argument("hunt move '" + move + "' needs " + what +
                                " >= " + std::to_string(min) + ", got '" +
                                s + "'");
  }
  return static_cast<std::size_t>(v);
}

/// Strict locale-independent double in [0, 1] (same contract as the
/// scenario grammar's rate parser).
double parse_rate01(const std::string& move, const std::string& s) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty() ||
      v < 0.0 || v > 1.0) {
    throw std::invalid_argument("bad rate in hunt move '" + move + "': '" +
                                s + "' (expected a number in [0, 1])");
  }
  return v;
}

std::string rate_str(double v) { return util::CsvWriter::to_field(v); }

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Top-level commas only (braces nest): the mix arm separator.
std::vector<std::string> split_arms(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}' && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      out.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  out.push_back(current);
  return out;
}

Move parse_strike_move(const std::string& param) {
  const CountSplit cs = split_count("strike", param);
  Move m;
  m.kind = Move::Kind::kStrike;
  m.count = require_count("strike", cs, param);
  if (cs.head.empty()) {
    throw std::invalid_argument(
        "hunt strike move needs an attack: 'strike:" + param +
        "' (expected strike:<attack>xN)");
  }
  attack::make_attack(cs.head, 1);  // validates; lists the registry
  m.attack = cs.head;
  return m;
}

Move parse_batch_move(const std::string& param) {
  const CountSplit cs = split_count("batch", param);
  Move m;
  m.kind = Move::Kind::kBatch;
  m.count = require_count("batch", cs, param);
  const auto parts = split_commas(cs.head);
  if (parts.size() != 2) {
    throw std::invalid_argument("bad hunt batch move: 'batch:" + param +
                                "' (expected batch:<k>,<hubs|random>xN)");
  }
  m.batch_size = parse_ranged("batch", "a batch size", parts[0], 1,
                              genome_limits().max_batch);
  if (parts[1] != "hubs" && parts[1] != "random") {
    throw std::invalid_argument("unknown hunt batch mode '" + parts[1] +
                                "' (expected hubs or random)");
  }
  m.batch_mode = parts[1];
  return m;
}

Move parse_churn_move(const std::string& param) {
  const CountSplit cs = split_count("churn", param);
  Move m;
  m.kind = Move::Kind::kChurn;
  m.count = require_count("churn", cs, param);
  const auto parts = split_commas(cs.head);
  if (parts.size() < 2 || parts.size() > 3) {
    throw std::invalid_argument(
        "bad hunt churn move: 'churn:" + param +
        "' (expected churn:<jr>,<lr>[,<attach>]xN)");
  }
  m.join_rate = parse_rate01("churn", parts[0]);
  m.leave_rate = parse_rate01("churn", parts[1]);
  if (parts.size() == 3) {
    m.attach = parse_ranged("churn", "an attach count", parts[2], 1,
                            genome_limits().max_attach);
  }
  return m;
}

Move parse_join_move(const std::string& param) {
  const CountSplit cs = split_count("join", param);
  Move m;
  m.kind = Move::Kind::kJoin;
  m.count = require_count("join", cs, param);
  if (cs.head.empty()) {
    throw std::invalid_argument("bad hunt join move: 'join:" + param +
                                "' (expected join:<attach>xN)");
  }
  m.attach = parse_ranged("join", "an attach count", cs.head, 1,
                          genome_limits().max_attach);
  return m;
}

Move parse_ramp_move(const std::string& param) {
  const CountSplit cs = split_count("ramp", param);
  Move m;
  m.kind = Move::Kind::kRamp;
  m.count = require_count("ramp", cs, param);
  const auto parts = split_commas(cs.head);
  if (parts.size() < 4 || parts.size() > 5) {
    throw std::invalid_argument(
        "bad hunt ramp move: 'ramp:" + param +
        "' (expected ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN)");
  }
  m.join_rate = parse_rate01("ramp", parts[0]);
  m.leave_rate = parse_rate01("ramp", parts[1]);
  m.join_rate_end = parse_rate01("ramp", parts[2]);
  m.leave_rate_end = parse_rate01("ramp", parts[3]);
  if (parts.size() == 5) {
    m.attach = parse_ranged("ramp", "an attach count", parts[4], 1,
                            genome_limits().max_attach);
  }
  return m;
}

Move parse_mix_move(const std::string& param) {
  const CountSplit cs = split_count("mix", param);
  Move m;
  m.kind = Move::Kind::kMix;
  m.count = require_count("mix", cs, param);
  const auto arms = split_arms(cs.head);
  if (arms.empty() || arms.size() > 4) {
    throw std::invalid_argument(
        "bad hunt mix move: 'mix:" + param +
        "' (expected 1..4 arms <w>{<move>})");
  }
  for (const std::string& arm : arms) {
    const auto brace = arm.find('{');
    if (arm.empty() || brace == std::string::npos || brace == 0 ||
        arm.back() != '}' || !all_digits(arm.substr(0, brace))) {
      throw std::invalid_argument("bad hunt mix arm '" + arm +
                                  "' (expected <weight>{<move>})");
    }
    const auto weight = util::parse_spec_uint("mix", arm.substr(0, brace),
                                              genome_limits().max_weight);
    if (weight == 0) {
      throw std::invalid_argument("zero weight in hunt mix move 'mix:" +
                                  param + "'");
    }
    const Move inner =
        parse_move(arm.substr(brace + 1, arm.size() - brace - 2));
    if (inner.kind == Move::Kind::kMix) {
      throw std::invalid_argument(
          "hunt mix arms must be single non-mix moves: 'mix:" + param +
          "'");
    }
    m.mix_arms.emplace_back(weight, inner.spec());
  }
  return m;
}

/// ';'-split honouring braces, with whitespace-trimmed tokens.
std::vector<std::string> split_moves(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string current;
  int depth = 0;
  for (char c : spec) {
    if (c == '{') ++depth;
    if (c == '}' && depth > 0) --depth;
    if (c == ';' && depth == 0) {
      tokens.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  tokens.push_back(current);
  for (std::string& t : tokens) {
    const auto begin = t.find_first_not_of(" \t\n\r");
    if (begin == std::string::npos) {
      t.clear();
      continue;
    }
    const auto end = t.find_last_not_of(" \t\n\r");
    t = t.substr(begin, end - begin + 1);
  }
  return tokens;
}

}  // namespace

const GenomeLimits& genome_limits() {
  static const GenomeLimits limits;
  return limits;
}

std::string Move::spec() const {
  switch (kind) {
    case Kind::kStrike:
      return "strike:" + attack + "x" + std::to_string(count);
    case Kind::kBatch:
      return "batch:" + std::to_string(batch_size) + "," + batch_mode +
             "x" + std::to_string(count);
    case Kind::kChurn: {
      std::string out = "churn:" + rate_str(join_rate) + "," +
                        rate_str(leave_rate);
      if (attach != 2) out += "," + std::to_string(attach);
      return out + "x" + std::to_string(count);
    }
    case Kind::kJoin:
      return "join:" + std::to_string(attach) + "x" +
             std::to_string(count);
    case Kind::kRamp: {
      std::string out = "ramp:" + rate_str(join_rate) + "," +
                        rate_str(leave_rate) + "," +
                        rate_str(join_rate_end) + "," +
                        rate_str(leave_rate_end);
      if (attach != 2) out += "," + std::to_string(attach);
      return out + "x" + std::to_string(count);
    }
    case Kind::kMix: {
      std::string out = "mix:";
      for (std::size_t i = 0; i < mix_arms.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(mix_arms[i].first);
        out += '{';
        out += mix_arms[i].second;
        out += '}';
      }
      return out + "x" + std::to_string(count);
    }
  }
  return "";
}

util::Registry<Move>& move_registry() {
  // Lazy built-in registration (static-library linker-drop caveat; see
  // util/registry.h).
  static util::Registry<Move>* registry = [] {
    auto* r = new util::Registry<Move>("hunt move");
    r->add(
        "strike",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_strike_move(p));
        },
        {}, "strike:<attack>xN");
    r->add(
        "batch",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_batch_move(p));
        },
        {}, "batch:<k>,<hubs|random>xN");
    r->add(
        "churn",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_churn_move(p));
        },
        {}, "churn:<jr>,<lr>[,<attach>]xN");
    r->add(
        "join",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_join_move(p));
        },
        {}, "join:<attach>xN");
    r->add(
        "ramp",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_ramp_move(p));
        },
        {}, "ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN");
    r->add(
        "mix",
        [](const std::string& p) {
          return std::make_unique<Move>(parse_mix_move(p));
        },
        {}, "mix:<w>{<move>},<w>{<move>}xN");
    return r;
  }();
  return *registry;
}

Move parse_move(const std::string& spec) {
  return *move_registry().create(spec);
}

AttackGenome AttackGenome::parse(const std::string& spec) {
  std::vector<Move> moves;
  for (const std::string& token : split_moves(spec)) {
    if (token.empty()) {
      throw std::invalid_argument("empty move in hunt genome spec: '" +
                                  spec + "'");
    }
    moves.push_back(parse_move(token));
  }
  if (moves.size() > genome_limits().max_moves) {
    throw std::invalid_argument(
        "hunt genome has " + std::to_string(moves.size()) +
        " moves (limit " + std::to_string(genome_limits().max_moves) +
        "): '" + spec + "'");
  }
  return AttackGenome(std::move(moves));
}

std::string AttackGenome::spec() const {
  std::string out;
  for (const Move& m : moves_) {
    if (!out.empty()) out += ';';
    out += m.spec();
  }
  return out;
}

std::uint64_t AttackGenome::hash() const { return util::fnv1a64(spec()); }

std::string AttackGenome::hash_hex() const { return util::hex16(hash()); }

api::Scenario AttackGenome::to_scenario() const {
  return api::Scenario::parse(spec());
}

}  // namespace dash::hunt
