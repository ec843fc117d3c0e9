#include "api/scenario.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/network.h"
#include "attack/factory.h"
#include "graph/sample.h"
#include "util/check.h"
#include "util/csv.h"

// Defined in replay/trace_phase.cpp; see the registry builder below.
namespace dash::replay::detail {
void register_trace_phase(dash::util::Registry<dash::api::ScenarioPhase>* r);
}  // namespace dash::replay::detail

namespace dash::api {

namespace {

using graph::NodeId;

// ---- small parsing helpers ---------------------------------------------

bool all_digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c); });
}

/// Split a phase's parameter at its trailing `x<digits>` count:
/// "0.3,0.1x500" -> {"0.3,0.1", 500}. A trailing x with a non-numeric
/// suffix (as in "neighborofmax") is left in the head. Explicit zero
/// counts are malformed -- a phase that does nothing is a spec typo.
struct CountSplit {
  std::string head;
  std::size_t count = 0;
  bool has_count = false;
};

CountSplit split_count(const std::string& phase, const std::string& args) {
  CountSplit out;
  out.head = args;
  const auto pos = args.find_last_of('x');
  if (pos == std::string::npos) return out;
  const std::string suffix = args.substr(pos + 1);
  if (!all_digits(suffix)) return out;
  out.count = static_cast<std::size_t>(
      util::parse_spec_uint(phase, suffix));
  if (out.count == 0) {
    throw std::invalid_argument("zero count in scenario phase '" + phase +
                                ":" + args + "'");
  }
  out.head = args.substr(0, pos);
  out.has_count = true;
  return out;
}

/// Strict double in [0, 1] for churn rates. std::from_chars, not
/// std::stod: rate specs must parse the same under every process
/// locale (stod honours LC_NUMERIC, so "0.3" fails and "0,3" parses
/// under a comma-decimal locale).
double parse_rate(const std::string& phase, const std::string& s) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || s.empty() ||
      v < 0.0 || v > 1.0) {
    throw std::invalid_argument("bad rate in scenario phase '" + phase +
                                "': '" + s +
                                "' (expected a number in [0, 1])");
  }
  return v;
}

/// Minimal decimal form for rates ("0.3", "1"), round-trip safe.
std::string rate_to_string(double v) {
  return util::CsvWriter::to_field(v);
}

/// `head` with its `x<count>` suffix; a count of 0 (no cap) is left out.
std::string with_count(std::string head, std::size_t count) {
  if (count > 0) head += "x" + std::to_string(count);
  return head;
}

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

/// Split at top-level commas only (braces nest): the mix arm
/// separator, where each arm carries a nested phase list.
std::vector<std::string> split_commas_toplevel(const std::string& s) {
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

/// Alive nodes sorted by (degree desc, id asc): the batch "hubs" order.
std::vector<NodeId> hubs_first(const graph::Graph& g) {
  auto alive = g.alive_nodes();
  std::sort(alive.begin(), alive.end(), [&g](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return alive;
}

/// Attack specs are resolved through attack::attack_registry() when a
/// phase executes; reject unknown names already at scenario build/parse
/// time so the error surfaces where the spec was written.
void validate_attack_spec(const std::string& phase,
                          const std::string& spec) {
  if (!attack::attack_registry().contains(spec)) {
    std::string names;
    for (const auto& n : attack::attack_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw std::invalid_argument("unknown attack '" + spec +
                                "' in scenario phase '" + phase +
                                "' (registered: " + names + ")");
  }
}

// ---- phases --------------------------------------------------------------

/// strike, targeted, until and untilfrac: delete the victims one
/// attacker picks until it stops, `cap` deletions (0: no cap), or at
/// most `keep` nodes alive -- ceil(initial_size * keep_frac) of them when
/// keep_frac > 0, so one spec serves every n of a sweep grid. The
/// deletion floor and the play's stop condition end it too.
class AttackPhase final : public ScenarioPhase {
 public:
  struct Stop {
    std::size_t cap = 0;
    std::size_t keep = 0;
    double keep_frac = 0.0;
  };

  AttackPhase(std::string spec, AttackerFactory factory, Stop stop)
      : spec_(std::move(spec)), factory_(std::move(factory)), stop_(stop) {}

  std::string spec() const override { return spec_; }

  void execute(PlayContext& ctx) const override {
    std::size_t keep = stop_.keep;
    if (stop_.keep_frac > 0.0) {
      const double raw = std::ceil(
          static_cast<double>(ctx.net.initial_size()) * stop_.keep_frac);
      keep = std::max<std::size_t>(1, static_cast<std::size_t>(raw));
    }
    keep = std::max(keep, ctx.floor);
    const auto atk = factory_(ctx.rng.next_u64());
    for (std::size_t deleted = 0; stop_.cap == 0 || deleted < stop_.cap;
         ++deleted) {
      if (ctx.net.graph().num_alive() <= keep || ctx.stopped()) return;
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) return;
      ctx.net.remove(v);
    }
  }

 private:
  std::string spec_;
  AttackerFactory factory_;
  Stop stop_;
};

class BatchStrikePhase final : public ScenarioPhase {
 public:
  BatchStrikePhase(std::size_t batch_size, std::string mode,
                   std::size_t rounds)
      : batch_size_(batch_size), mode_(std::move(mode)), rounds_(rounds) {}

  std::string spec() const override {
    return with_count("batch:" + std::to_string(batch_size_) + "," + mode_,
                      rounds_);
  }

  void execute(PlayContext& ctx) const override {
    std::size_t done = 0;
    while (rounds_ == 0 || done < rounds_) {
      const auto& g = ctx.net.graph();
      // The whole batch must fit above the deletion floor (floor >= 1
      // also guarantees a survivor).
      if (g.num_alive() < batch_size_ + ctx.floor || ctx.stopped()) break;
      std::vector<NodeId> batch;
      if (mode_ == "hubs") {
        const auto ordered = hubs_first(g);
        batch.assign(ordered.begin(), ordered.begin() + batch_size_);
      } else {
        batch = graph::sample_alive(g, ctx.rng, batch_size_);
      }
      ctx.net.remove_batch(batch);
      ++done;
    }
  }

 private:
  std::size_t batch_size_;
  std::string mode_;
  std::size_t rounds_;
};

/// churn and ramp: `events` ticks, each joining a newcomer wired to
/// `attach` random alive peers and deleting a uniform random node, each
/// with its own probability. The rates move linearly from (join0,
/// leave0) at the first tick to (join1, leave1) at the last; churn
/// holds them fixed.
class ChurnPhase final : public ScenarioPhase {
 public:
  ChurnPhase(std::string spec, double join0, double leave0, double join1,
             double leave1, std::size_t events, std::size_t attach)
      : spec_(std::move(spec)),
        join0_(join0),
        leave0_(leave0),
        join1_(join1),
        leave1_(leave1),
        events_(events),
        attach_(attach) {}

  std::string spec() const override { return spec_; }

  void execute(PlayContext& ctx) const override {
    for (std::size_t e = 0; e < events_; ++e) {
      if (ctx.stopped()) break;
      // Both coins are flipped every tick (joins and leaves are
      // independent processes), keeping the stream layout fixed. With
      // churn's equal start and end rates the interpolation adds
      // exactly 0, so each coin uses churn's own rate.
      const double t =
          events_ == 1 ? 0.0
                       : static_cast<double>(e) /
                             static_cast<double>(events_ - 1);
      const bool do_join = ctx.rng.chance(join0_ + (join1_ - join0_) * t);
      const bool do_leave =
          ctx.rng.chance(leave0_ + (leave1_ - leave0_) * t);
      if (do_join) {
        ctx.net.join(
            graph::sample_alive(ctx.net.graph(), ctx.rng, attach_));
      }
      if (do_leave && ctx.net.graph().num_alive() > ctx.floor) {
        ctx.net.remove(graph::sample_alive(ctx.net.graph(), ctx.rng, 1)[0]);
      }
    }
  }

 private:
  std::string spec_;
  double join0_;
  double leave0_;
  double join1_;
  double leave1_;
  std::size_t events_;
  std::size_t attach_;
};

class JoinPhase final : public ScenarioPhase {
 public:
  JoinPhase(std::size_t attach, std::size_t count)
      : attach_(attach), count_(count) {}

  std::string spec() const override {
    return "join:" + std::to_string(attach_) + "x" +
           std::to_string(count_);
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t i = 0; i < count_; ++i) {
      if (ctx.stopped()) break;
      ctx.net.join(
          graph::sample_alive(ctx.net.graph(), ctx.rng, attach_));
    }
  }

 private:
  std::size_t attach_;
  std::size_t count_;
};

/// Runs a nested phase list once; false when the play's stop condition
/// ended it.
bool run_body(PlayContext& ctx, const Scenario& body) {
  for (const auto& phase : body.phases()) {
    if (ctx.stopped()) return false;
    phase->execute(ctx);
  }
  return true;
}

/// One weighted alternative of a mix phase.
struct MixArm {
  std::uint64_t weight = 1;
  Scenario body;
};

class MixPhase final : public ScenarioPhase {
 public:
  MixPhase(std::vector<MixArm> arms, std::size_t draws)
      : arms_(std::move(arms)), draws_(draws) {
    for (const MixArm& arm : arms_) total_ += arm.weight;
  }

  std::string spec() const override {
    std::string out("mix:");
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(arms_[i].weight);
      out += '{';
      out += arms_[i].body.spec();
      out += '}';
    }
    return with_count(out, draws_);
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t d = 0; d < draws_; ++d) {
      if (ctx.stopped()) break;
      // One weighted draw per iteration, then the chosen arm's whole
      // phase list runs once.
      std::uint64_t r = ctx.rng.below(total_);
      for (const MixArm& arm : arms_) {
        if (r < arm.weight) {
          if (!run_body(ctx, arm.body)) return;
          break;
        }
        r -= arm.weight;
      }
    }
  }

 private:
  std::vector<MixArm> arms_;
  std::size_t draws_;
  std::uint64_t total_ = 0;
};

/// repeat, and the named presets: a nested phase list run `times` times.
/// A preset runs its body once and round-trips through its name, so
/// grids and CLIs stay readable.
class RepeatPhase final : public ScenarioPhase {
 public:
  RepeatPhase(std::string spec, std::size_t times, Scenario body)
      : spec_(std::move(spec)), times_(times), body_(std::move(body)) {}

  std::string spec() const override { return spec_; }

  void execute(PlayContext& ctx) const override {
    for (std::size_t t = 0; t < times_; ++t) {
      if (!run_body(ctx, body_)) return;
    }
  }

 private:
  std::string spec_;
  std::size_t times_;
  Scenario body_;
};

class FloorPhase final : public ScenarioPhase {
 public:
  explicit FloorPhase(std::size_t min_alive) : min_alive_(min_alive) {}

  std::string spec() const override {
    return "floor:" + std::to_string(min_alive_);
  }

  void execute(PlayContext& ctx) const override { ctx.floor = min_alive_; }

 private:
  std::size_t min_alive_;
};

// ---- phase parsers (registry factories) ----------------------------------

/// A phase driven by the registry attack `attack`, resolved (and its
/// seed drawn) each time the phase executes.
std::unique_ptr<ScenarioPhase> attack_phase(const std::string& phase,
                                            const std::string& attack,
                                            std::string spec,
                                            AttackPhase::Stop stop) {
  validate_attack_spec(phase, attack);
  return std::make_unique<AttackPhase>(
      std::move(spec),
      [attack](std::uint64_t seed) {
        return attack::make_attack(attack, seed);
      },
      stop);
}

std::unique_ptr<ScenarioPhase> parse_strike(const std::string& param) {
  const CountSplit cs = split_count("strike", param);
  std::string attack = cs.head.empty() ? "maxnode" : cs.head;
  std::size_t count = cs.has_count ? cs.count : 1;
  if (!cs.has_count && all_digits(cs.head)) {
    // "strike:40" == "strike x40".
    count = static_cast<std::size_t>(util::parse_spec_uint("strike", cs.head));
    if (count == 0) {
      throw std::invalid_argument("zero count in scenario phase 'strike:" +
                                  param + "'");
    }
    attack = "maxnode";
  }
  return attack_phase("strike", attack,
                      "strike:" + attack + "x" + std::to_string(count),
                      {.cap = count});
}

std::unique_ptr<ScenarioPhase> parse_batch(const std::string& param) {
  const CountSplit cs = split_count("batch", param);
  const auto parts = split_commas(cs.head);
  if (parts.empty() || parts.size() > 2 || parts[0].empty()) {
    throw std::invalid_argument(
        "bad batch phase: 'batch:" + param +
        "' (expected batch:<k>[,hubs|random][xN])");
  }
  const auto k = util::parse_spec_uint("batch", parts[0]);
  if (k == 0) {
    throw std::invalid_argument("zero batch size in 'batch:" + param + "'");
  }
  std::string mode = parts.size() == 2 ? parts[1] : "hubs";
  if (mode != "hubs" && mode != "random") {
    throw std::invalid_argument("unknown batch mode '" + mode +
                                "' (expected hubs or random)");
  }
  return std::make_unique<BatchStrikePhase>(static_cast<std::size_t>(k),
                                            std::move(mode), cs.count);
}

/// churn:<jr>,<lr>[,<a>]xN and ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<a>]xN:
/// `rates` rates, then an optional attach count.
std::unique_ptr<ScenarioPhase> parse_churn_like(const std::string& phase,
                                                const std::string& param,
                                                std::size_t rates,
                                                const std::string& usage) {
  const CountSplit cs = split_count(phase, param);
  if (!cs.has_count) {
    throw std::invalid_argument(phase + " phase needs an event count: '" +
                                phase + ":" + param + "' (expected " +
                                usage + ")");
  }
  const auto parts = split_commas(cs.head);
  if (parts.size() < rates || parts.size() > rates + 1) {
    throw std::invalid_argument("bad " + phase + " phase: '" + phase + ":" +
                                param + "' (expected " + usage + ")");
  }
  std::vector<double> r;
  std::string spec = phase + ":";
  for (std::size_t i = 0; i < rates; ++i) {
    r.push_back(parse_rate(phase, parts[i]));
    spec += rate_to_string(r.back()) + (i + 1 < rates ? "," : "");
  }
  std::size_t attach = 2;
  if (parts.size() == rates + 1) {
    attach = static_cast<std::size_t>(
        util::parse_spec_uint(phase, parts[rates]));
    if (attach == 0) {
      throw std::invalid_argument(phase + " attach count must be >= 1 in '" +
                                  param + "'");
    }
  }
  if (attach != 2) spec += "," + std::to_string(attach);
  spec = with_count(spec, cs.count);
  const std::size_t end = rates == 2 ? 0 : 2;  // churn holds its rates
  return std::make_unique<ChurnPhase>(std::move(spec), r[0], r[1], r[end],
                                      r[end + 1], cs.count, attach);
}

std::unique_ptr<ScenarioPhase> parse_churn(const std::string& param) {
  return parse_churn_like("churn", param, 2,
                          "churn:<join_rate>,<leave_rate>[,<attach>]xN");
}

std::unique_ptr<ScenarioPhase> parse_ramp(const std::string& param) {
  return parse_churn_like("ramp", param, 4,
                          "ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN");
}

std::unique_ptr<ScenarioPhase> parse_join(const std::string& param) {
  const CountSplit cs = split_count("join", param);
  std::size_t attach = 2;
  if (!cs.head.empty()) {
    attach = static_cast<std::size_t>(
        util::parse_spec_uint("join", cs.head));
    if (attach == 0) {
      throw std::invalid_argument("join attach count must be >= 1 in '" +
                                  param + "'");
    }
  }
  return std::make_unique<JoinPhase>(attach, cs.has_count ? cs.count : 1);
}

std::unique_ptr<ScenarioPhase> parse_mix(const std::string& param) {
  const CountSplit cs = split_count("mix", param);
  if (!cs.has_count) {
    throw std::invalid_argument(
        "mix phase needs a draw count: 'mix:" + param +
        "' (expected mix:<w1>{<phases>},<w2>{<phases>}[,...]xN)");
  }
  std::vector<MixArm> arms;
  for (const std::string& item : split_commas_toplevel(cs.head)) {
    const auto brace = item.find('{');
    if (item.empty() || brace == std::string::npos || brace == 0 ||
        item.back() != '}' || !all_digits(item.substr(0, brace))) {
      throw std::invalid_argument("bad mix arm '" + item + "' in 'mix:" +
                                  param +
                                  "' (expected <weight>{<phases>})");
    }
    MixArm arm;
    arm.weight = util::parse_spec_uint("mix", item.substr(0, brace));
    if (arm.weight == 0) {
      throw std::invalid_argument("zero weight in 'mix:" + param + "'");
    }
    arm.body =
        Scenario::parse(item.substr(brace + 1, item.size() - brace - 2));
    arms.push_back(std::move(arm));
  }
  return std::make_unique<MixPhase>(std::move(arms), cs.count);
}

std::unique_ptr<ScenarioPhase> parse_targeted(const std::string& param) {
  const CountSplit cs = split_count("targeted", param);
  const std::string attack = cs.head.empty() ? "maxnode" : cs.head;
  return attack_phase("targeted", attack,
                      with_count("targeted:" + attack, cs.count),
                      {.cap = cs.count});
}

/// The optional `,<attack>` of until and untilfrac.
std::string until_attack(const std::vector<std::string>& parts) {
  return parts.size() == 2 && !parts[1].empty() ? parts[1] : "maxnode";
}

std::unique_ptr<ScenarioPhase> parse_until(const std::string& param) {
  const auto parts = split_commas(param);
  if (parts.empty() || parts.size() > 2 || !all_digits(parts[0])) {
    throw std::invalid_argument("bad until phase: 'until:" + param +
                                "' (expected until:<n>[,<attack>])");
  }
  const auto n = static_cast<std::size_t>(
      util::parse_spec_uint("until", parts[0]));
  if (n == 0) {
    throw std::invalid_argument("until needs n >= 1 in 'until:" + param +
                                "'");
  }
  const std::string attack = until_attack(parts);
  return attack_phase("until", attack,
                      "until:" + std::to_string(n) + "," + attack,
                      {.keep = n});
}

std::unique_ptr<ScenarioPhase> parse_untilfrac(const std::string& param) {
  const auto parts = split_commas(param);
  if (parts.empty() || parts.size() > 2 || parts[0].empty()) {
    throw std::invalid_argument(
        "bad untilfrac phase: 'untilfrac:" + param +
        "' (expected untilfrac:<frac>[,<attack>])");
  }
  const double frac = parse_rate("untilfrac", parts[0]);
  if (frac <= 0.0 || frac > 1.0) {
    throw std::invalid_argument(
        "untilfrac needs a fraction in (0, 1] in 'untilfrac:" + param +
        "'");
  }
  const std::string attack = until_attack(parts);
  return attack_phase("untilfrac", attack,
                      "untilfrac:" + rate_to_string(frac) + "," + attack,
                      {.keep_frac = frac});
}

std::unique_ptr<ScenarioPhase> parse_repeat(const std::string& param) {
  const auto brace = param.find('{');
  if (brace == std::string::npos || param.empty() ||
      param.back() != '}' || !all_digits(param.substr(0, brace))) {
    throw std::invalid_argument("bad repeat phase: 'repeat:" + param +
                                "' (expected repeat:<k>{<phases>})");
  }
  const auto times = util::parse_spec_uint("repeat", param.substr(0, brace));
  if (times == 0) {
    throw std::invalid_argument("zero count in 'repeat:" + param + "'");
  }
  Scenario body =
      Scenario::parse(param.substr(brace + 1, param.size() - brace - 2));
  std::string spec =
      "repeat:" + std::to_string(times) + "{" + body.spec() + "}";
  return std::make_unique<RepeatPhase>(
      std::move(spec), static_cast<std::size_t>(times), std::move(body));
}

std::unique_ptr<ScenarioPhase> parse_floor(const std::string& param) {
  if (!all_digits(param)) {
    throw std::invalid_argument("bad floor phase: 'floor:" + param +
                                "' (expected floor:<min_alive>)");
  }
  const auto n = util::parse_spec_uint("floor", param);
  if (n == 0) {
    throw std::invalid_argument("floor needs min_alive >= 1 in 'floor:" +
                                param + "'");
  }
  return std::make_unique<FloorPhase>(static_cast<std::size_t>(n));
}

/// Split a spec into phase tokens at top-level ';' (braces nest).
std::vector<std::string> split_phases(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string current;
  int depth = 0;
  for (char c : spec) {
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      if (depth < 0) {
        throw std::invalid_argument("unbalanced '}' in scenario spec: '" +
                                    spec + "'");
      }
    }
    if (c == ';' && depth == 0) {
      tokens.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (depth != 0) {
    throw std::invalid_argument("unbalanced '{' in scenario spec: '" +
                                spec + "'");
  }
  tokens.push_back(current);
  return tokens;
}

std::string trimmed(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\n\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\n\r");
  return s.substr(begin, end - begin + 1);
}

/// Register a named preset: a fixed phase list a spec can pull in by
/// name. Presets live in the same registry as the primitive phases, so
/// an unknown preset error lists every registered spelling.
void add_preset(util::Registry<ScenarioPhase>* r, const std::string& name,
                const std::string& body_spec) {
  r->add(name,
         [name, body_spec](const std::string& param)
             -> std::unique_ptr<ScenarioPhase> {
           if (!param.empty()) {
             throw std::invalid_argument("scenario preset '" + name +
                                         "' takes no parameter (got '" +
                                         param + "')");
           }
           return std::make_unique<RepeatPhase>(name, 1,
                                                Scenario::parse(body_spec));
         },
         {}, name);
}

}  // namespace

// ---- registry -------------------------------------------------------------

util::Registry<ScenarioPhase>& scenario_phase_registry() {
  static util::Registry<ScenarioPhase>* registry = [] {
    auto* r = new util::Registry<ScenarioPhase>("scenario phase");
    r->add(
        "strike",
        [](const std::string& param) { return parse_strike(param); },
        {"delete"}, "strike[:<attack>][xN]");
    r->add(
        "batch",
        [](const std::string& param) { return parse_batch(param); },
        {"batch_strike", "batchstrike"}, "batch:<k>[,hubs|random][xN]");
    r->add(
        "churn",
        [](const std::string& param) { return parse_churn(param); }, {},
        "churn:<join_rate>,<leave_rate>[,<attach>]xN");
    r->add(
        "targeted",
        [](const std::string& param) { return parse_targeted(param); },
        {"targeted_attack", "run"}, "targeted[:<attack>][xN]");
    r->add(
        "until",
        [](const std::string& param) { return parse_until(param); },
        {"until_n_left", "untilnleft"}, "until:<n>[,<attack>]");
    r->add(
        "repeat",
        [](const std::string& param) { return parse_repeat(param); }, {},
        "repeat:<k>{...}");
    r->add(
        "floor",
        [](const std::string& param) { return parse_floor(param); }, {},
        "floor:<min_alive>");
    r->add(
        "untilfrac",
        [](const std::string& param) { return parse_untilfrac(param); },
        {"until_frac"}, "untilfrac:<frac>[,<attack>]");
    r->add(
        "join",
        [](const std::string& param) { return parse_join(param); }, {},
        "join[:<attach>][xN]");
    r->add(
        "ramp",
        [](const std::string& param) { return parse_ramp(param); }, {},
        "ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN");
    r->add(
        "mix",
        [](const std::string& param) { return parse_mix(param); }, {},
        "mix:<w>{...},<w>{...}xN");
    // Named presets (keep these registered after the primitives they
    // expand to): the spellings grids and dash_lab reference directly.
    add_preset(r, "paper-churn", "churn:0.3,0.1x500");
    add_preset(r, "max-degree-attack", "targeted:maxnode");
    add_preset(r, "until-half", "untilfrac:0.5,maxnode");
    add_preset(r, "until-quarter", "untilfrac:0.25,maxnode");
    // "trace:<file>" lives in the replay layer, which api headers
    // cannot include; both sides link into one library, so the phase
    // registers itself through this hook (replay/trace_phase.cpp).
    dash::replay::detail::register_trace_phase(r);
    return r;
  }();
  return *registry;
}

// ---- Scenario ---------------------------------------------------------------

Scenario Scenario::parse(const std::string& spec) {
  Scenario out;
  for (const std::string& raw : split_phases(spec)) {
    const std::string token = trimmed(raw);
    if (token.empty()) {
      throw std::invalid_argument("empty phase in scenario spec: '" + spec +
                                  "'");
    }
    out.add(scenario_phase_registry().create(token));
  }
  return out;
}

Scenario& Scenario::targeted(AttackerFactory factory,
                             const std::string& label,
                             std::size_t max_deletions) {
  DASH_CHECK_MSG(factory != nullptr, "null attacker factory");
  return add(std::make_shared<AttackPhase>(
      with_count("targeted:<" + label + ">", max_deletions),
      std::move(factory), AttackPhase::Stop{.cap = max_deletions}));
}

Scenario& Scenario::add(std::shared_ptr<const ScenarioPhase> phase) {
  DASH_CHECK_MSG(phase != nullptr, "null scenario phase");
  phases_.push_back(std::move(phase));
  return *this;
}

std::string Scenario::spec() const {
  std::string out;
  for (const auto& p : phases_) {
    if (!out.empty()) out += ";";
    out += p->spec();
  }
  return out;
}

// ---- Network::play ---------------------------------------------------------

Metrics Network::play(const Scenario& scenario, dash::util::Rng& rng,
                      const PlayOptions& opts) {
  PlayContext ctx{*this, rng, 1, &opts};
  for (const auto& phase : scenario.phases()) {
    if (ctx.stopped()) break;
    notify_phase(phase->spec());
    phase->execute(ctx);
  }
  return finish();
}

Metrics Network::play(const Scenario& scenario, std::uint64_t seed,
                      const PlayOptions& opts) {
  dash::util::Rng rng(seed);
  return play(scenario, rng, opts);
}

}  // namespace dash::api
