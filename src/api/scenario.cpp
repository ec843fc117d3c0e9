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

class StrikePhase final : public ScenarioPhase {
 public:
  StrikePhase(std::string attack, std::size_t count)
      : attack_(std::move(attack)), count_(count) {
    DASH_CHECK_MSG(count_ > 0, "strike needs a positive count");
    validate_attack_spec("strike", attack_);
  }

  std::string spec() const override {
    return "strike:" + attack_ + "x" + std::to_string(count_);
  }

  void execute(PlayContext& ctx) const override {
    auto atk = attack::make_attack(attack_, ctx.rng.next_u64());
    for (std::size_t i = 0; i < count_; ++i) {
      if (ctx.net.graph().num_alive() <= ctx.floor || ctx.stopped()) break;
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) break;
      ctx.net.remove(v);
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<StrikePhase>(*this);
  }

 private:
  std::string attack_;
  std::size_t count_;
};

class BatchStrikePhase final : public ScenarioPhase {
 public:
  BatchStrikePhase(std::size_t batch_size, std::string mode,
                   std::size_t rounds)
      : batch_size_(batch_size), mode_(std::move(mode)), rounds_(rounds) {
    DASH_CHECK_MSG(batch_size_ > 0, "batch needs a positive size");
    DASH_CHECK_MSG(mode_ == "hubs" || mode_ == "random",
                   "batch mode must be hubs or random");
  }

  std::string spec() const override {
    std::string out("batch:");
    out += std::to_string(batch_size_);
    out += ',';
    out += mode_;
    if (rounds_ > 0) {
      out += 'x';
      out += std::to_string(rounds_);
    }
    return out;
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

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<BatchStrikePhase>(*this);
  }

 private:
  std::size_t batch_size_;
  std::string mode_;
  std::size_t rounds_;
};

class ChurnPhase final : public ScenarioPhase {
 public:
  ChurnPhase(double join_rate, double leave_rate, std::size_t events,
             std::size_t attach)
      : join_rate_(join_rate),
        leave_rate_(leave_rate),
        events_(events),
        attach_(attach) {
    DASH_CHECK_MSG(events_ > 0, "churn needs a positive event count");
    DASH_CHECK_MSG(attach_ > 0, "churn joins need >= 1 attachment");
  }

  std::string spec() const override {
    std::string out("churn:");
    out += rate_to_string(join_rate_);
    out += ',';
    out += rate_to_string(leave_rate_);
    if (attach_ != 2) {
      out += ',';
      out += std::to_string(attach_);
    }
    out += 'x';
    out += std::to_string(events_);
    return out;
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t e = 0; e < events_; ++e) {
      if (ctx.stopped()) break;
      // Both coins are flipped every tick (joins and leaves are
      // independent processes), keeping the stream layout fixed.
      const bool do_join = ctx.rng.chance(join_rate_);
      const bool do_leave = ctx.rng.chance(leave_rate_);
      if (do_join) {
        ctx.net.join(
            graph::sample_alive(ctx.net.graph(), ctx.rng, attach_));
      }
      if (do_leave && ctx.net.graph().num_alive() > ctx.floor) {
        ctx.net.remove(graph::sample_alive(ctx.net.graph(), ctx.rng, 1)[0]);
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<ChurnPhase>(*this);
  }

 private:
  double join_rate_;
  double leave_rate_;
  std::size_t events_;
  std::size_t attach_;
};

class JoinPhase final : public ScenarioPhase {
 public:
  JoinPhase(std::size_t attach, std::size_t count)
      : attach_(attach), count_(count) {
    DASH_CHECK_MSG(attach_ > 0, "join needs >= 1 attachment");
    DASH_CHECK_MSG(count_ > 0, "join needs a positive count");
  }

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

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<JoinPhase>(*this);
  }

 private:
  std::size_t attach_;
  std::size_t count_;
};

class RampPhase final : public ScenarioPhase {
 public:
  RampPhase(double join_start, double leave_start, double join_end,
            double leave_end, std::size_t events, std::size_t attach)
      : join_start_(join_start),
        leave_start_(leave_start),
        join_end_(join_end),
        leave_end_(leave_end),
        events_(events),
        attach_(attach) {
    DASH_CHECK_MSG(events_ > 0, "ramp needs a positive event count");
    DASH_CHECK_MSG(attach_ > 0, "ramp joins need >= 1 attachment");
  }

  std::string spec() const override {
    std::string out("ramp:");
    out += rate_to_string(join_start_);
    out += ',';
    out += rate_to_string(leave_start_);
    out += ',';
    out += rate_to_string(join_end_);
    out += ',';
    out += rate_to_string(leave_end_);
    if (attach_ != 2) {
      out += ',';
      out += std::to_string(attach_);
    }
    out += 'x';
    out += std::to_string(events_);
    return out;
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t e = 0; e < events_; ++e) {
      if (ctx.stopped()) break;
      // Linear interpolation of both rates across the phase; the last
      // tick hits the end rates exactly. Same both-coins-every-tick
      // stream layout as ChurnPhase, so a ramp with equal start/end
      // rates consumes the identical RNG stream a churn phase would.
      const double t =
          events_ == 1 ? 0.0
                       : static_cast<double>(e) /
                             static_cast<double>(events_ - 1);
      const bool do_join =
          ctx.rng.chance(join_start_ + (join_end_ - join_start_) * t);
      const bool do_leave =
          ctx.rng.chance(leave_start_ + (leave_end_ - leave_start_) * t);
      if (do_join) {
        ctx.net.join(
            graph::sample_alive(ctx.net.graph(), ctx.rng, attach_));
      }
      if (do_leave && ctx.net.graph().num_alive() > ctx.floor) {
        ctx.net.remove(graph::sample_alive(ctx.net.graph(), ctx.rng, 1)[0]);
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<RampPhase>(*this);
  }

 private:
  double join_start_;
  double leave_start_;
  double join_end_;
  double leave_end_;
  std::size_t events_;
  std::size_t attach_;
};

/// One weighted alternative of a mix phase.
struct MixArm {
  std::uint64_t weight = 1;
  Scenario body;
};

class MixPhase final : public ScenarioPhase {
 public:
  MixPhase(std::vector<MixArm> arms, std::size_t draws)
      : arms_(std::move(arms)), draws_(draws) {
    DASH_CHECK_MSG(!arms_.empty(), "mix needs at least one arm");
    DASH_CHECK_MSG(draws_ > 0, "mix needs a positive draw count");
    for (const MixArm& arm : arms_) {
      DASH_CHECK_MSG(arm.weight > 0, "mix weights must be >= 1");
      DASH_CHECK_MSG(!arm.body.empty(), "mix arm needs at least one phase");
      total_ += arm.weight;
    }
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
    out += 'x';
    out += std::to_string(draws_);
    return out;
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t d = 0; d < draws_; ++d) {
      if (ctx.stopped()) break;
      // One weighted draw per iteration, then the chosen arm's whole
      // phase list runs once.
      std::uint64_t r = ctx.rng.below(total_);
      for (const MixArm& arm : arms_) {
        if (r < arm.weight) {
          for (const auto& phase : arm.body.phases()) {
            if (ctx.stopped()) return;
            phase->execute(ctx);
          }
          break;
        }
        r -= arm.weight;
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<MixPhase>(*this);
  }

 private:
  std::vector<MixArm> arms_;
  std::size_t draws_;
  std::uint64_t total_ = 0;
};

class TargetedPhase final : public ScenarioPhase {
 public:
  TargetedPhase(std::string attack, std::size_t max_deletions)
      : attack_(std::move(attack)), max_deletions_(max_deletions) {
    validate_attack_spec("targeted", attack_);
  }

  TargetedPhase(AttackerFactory factory, std::string label,
                std::size_t max_deletions)
      : attack_("<" + label + ">"),
        factory_(std::move(factory)),
        max_deletions_(max_deletions) {}

  std::string spec() const override {
    std::string out("targeted:");
    out += attack_;
    if (max_deletions_ > 0) {
      out += 'x';
      out += std::to_string(max_deletions_);
    }
    return out;
  }

  void execute(PlayContext& ctx) const override {
    auto atk = factory_ ? factory_(ctx.rng.next_u64())
                        : attack::make_attack(attack_, ctx.rng.next_u64());
    std::size_t deleted = 0;
    while (max_deletions_ == 0 || deleted < max_deletions_) {
      if (ctx.net.graph().num_alive() <= ctx.floor || ctx.stopped()) break;
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) break;
      ctx.net.remove(v);
      ++deleted;
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<TargetedPhase>(*this);
  }

 private:
  std::string attack_;
  AttackerFactory factory_;
  std::size_t max_deletions_ = 0;
};

class UntilNLeftPhase final : public ScenarioPhase {
 public:
  UntilNLeftPhase(std::size_t n, std::string attack)
      : n_(n), attack_(std::move(attack)) {
    DASH_CHECK_MSG(n_ > 0, "until needs n >= 1");
    validate_attack_spec("until", attack_);
  }

  std::string spec() const override {
    return "until:" + std::to_string(n_) + "," + attack_;
  }

  void execute(PlayContext& ctx) const override {
    auto atk = attack::make_attack(attack_, ctx.rng.next_u64());
    while (ctx.net.graph().num_alive() > std::max(n_, ctx.floor)) {
      if (ctx.stopped()) break;
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) break;
      ctx.net.remove(v);
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<UntilNLeftPhase>(*this);
  }

 private:
  std::size_t n_;
  std::string attack_;
};

class UntilFracPhase final : public ScenarioPhase {
 public:
  UntilFracPhase(double frac, std::string attack)
      : frac_(frac), attack_(std::move(attack)) {
    DASH_CHECK_MSG(frac_ > 0.0 && frac_ <= 1.0,
                   "untilfrac needs a fraction in (0, 1]");
    validate_attack_spec("untilfrac", attack_);
  }

  std::string spec() const override {
    return "untilfrac:" + rate_to_string(frac_) + "," + attack_;
  }

  void execute(PlayContext& ctx) const override {
    // Size-relative target: delete until at most ceil(initial * frac)
    // nodes survive. The initial size comes from the engine, so the
    // same phase value serves every n of a sweep grid ("delete half"
    // without baking n/2 into the spec).
    const double raw =
        std::ceil(static_cast<double>(ctx.net.initial_size()) * frac_);
    const auto target =
        std::max<std::size_t>(1, static_cast<std::size_t>(raw));
    auto atk = attack::make_attack(attack_, ctx.rng.next_u64());
    while (ctx.net.graph().num_alive() > std::max(target, ctx.floor)) {
      if (ctx.stopped()) break;
      const NodeId v = atk->select(ctx.net.graph(), ctx.net.state());
      if (v == graph::kInvalidNode) break;
      ctx.net.remove(v);
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<UntilFracPhase>(*this);
  }

 private:
  double frac_;
  std::string attack_;
};

/// A registered name standing for a whole phase list; spec() round-trips
/// through the preset's name, so grids and CLIs stay readable.
class PresetPhase final : public ScenarioPhase {
 public:
  PresetPhase(std::string name, Scenario body)
      : name_(std::move(name)), body_(std::move(body)) {}

  std::string spec() const override { return name_; }

  void execute(PlayContext& ctx) const override {
    for (const auto& phase : body_.phases()) {
      if (ctx.stopped()) return;
      phase->execute(ctx);
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<PresetPhase>(*this);
  }

 private:
  std::string name_;
  Scenario body_;
};

class RepeatPhase final : public ScenarioPhase {
 public:
  RepeatPhase(std::size_t times, Scenario body)
      : times_(times), body_(std::move(body)) {
    DASH_CHECK_MSG(times_ > 0, "repeat needs a positive multiplier");
  }

  std::string spec() const override {
    return "repeat:" + std::to_string(times_) + "{" + body_.spec() + "}";
  }

  void execute(PlayContext& ctx) const override {
    for (std::size_t t = 0; t < times_; ++t) {
      for (const auto& phase : body_.phases()) {
        if (ctx.stopped()) return;
        phase->execute(ctx);
      }
    }
  }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<RepeatPhase>(*this);
  }

 private:
  std::size_t times_;
  Scenario body_;
};

class FloorPhase final : public ScenarioPhase {
 public:
  explicit FloorPhase(std::size_t min_alive) : min_alive_(min_alive) {
    DASH_CHECK_MSG(min_alive_ > 0, "floor needs min_alive >= 1");
  }

  std::string spec() const override {
    return "floor:" + std::to_string(min_alive_);
  }

  void execute(PlayContext& ctx) const override { ctx.floor = min_alive_; }

  std::unique_ptr<ScenarioPhase> clone() const override {
    return std::make_unique<FloorPhase>(*this);
  }

 private:
  std::size_t min_alive_;
};

// ---- phase parsers (registry factories) ----------------------------------

std::unique_ptr<ScenarioPhase> parse_strike(const std::string& param) {
  const CountSplit cs = split_count("strike", param);
  if (cs.head.empty()) {
    return std::make_unique<StrikePhase>("maxnode",
                                         cs.has_count ? cs.count : 1);
  }
  if (!cs.has_count && all_digits(cs.head)) {
    // "strike:40" == "strike x40".
    const auto count = util::parse_spec_uint("strike", cs.head);
    if (count == 0) {
      throw std::invalid_argument("zero count in scenario phase 'strike:" +
                                  param + "'");
    }
    return std::make_unique<StrikePhase>(
        "maxnode", static_cast<std::size_t>(count));
  }
  return std::make_unique<StrikePhase>(cs.head,
                                       cs.has_count ? cs.count : 1);
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
  return std::make_unique<BatchStrikePhase>(
      static_cast<std::size_t>(k), std::move(mode),
      cs.has_count ? cs.count : 0);
}

std::unique_ptr<ScenarioPhase> parse_churn(const std::string& param) {
  const CountSplit cs = split_count("churn", param);
  if (!cs.has_count) {
    throw std::invalid_argument(
        "churn phase needs an event count: 'churn:" + param +
        "' (expected churn:<join_rate>,<leave_rate>[,<attach>]xN)");
  }
  const auto parts = split_commas(cs.head);
  if (parts.size() < 2 || parts.size() > 3) {
    throw std::invalid_argument(
        "bad churn phase: 'churn:" + param +
        "' (expected churn:<join_rate>,<leave_rate>[,<attach>]xN)");
  }
  const double jr = parse_rate("churn", parts[0]);
  const double lr = parse_rate("churn", parts[1]);
  std::size_t attach = 2;
  if (parts.size() == 3) {
    attach = static_cast<std::size_t>(
        util::parse_spec_uint("churn", parts[2]));
    if (attach == 0) {
      throw std::invalid_argument("churn attach count must be >= 1 in '" +
                                  param + "'");
    }
  }
  return std::make_unique<ChurnPhase>(jr, lr, cs.count, attach);
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

std::unique_ptr<ScenarioPhase> parse_ramp(const std::string& param) {
  const CountSplit cs = split_count("ramp", param);
  if (!cs.has_count) {
    throw std::invalid_argument(
        "ramp phase needs an event count: 'ramp:" + param +
        "' (expected ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN)");
  }
  const auto parts = split_commas(cs.head);
  if (parts.size() < 4 || parts.size() > 5) {
    throw std::invalid_argument(
        "bad ramp phase: 'ramp:" + param +
        "' (expected ramp:<jr0>,<lr0>,<jr1>,<lr1>[,<attach>]xN)");
  }
  const double jr0 = parse_rate("ramp", parts[0]);
  const double lr0 = parse_rate("ramp", parts[1]);
  const double jr1 = parse_rate("ramp", parts[2]);
  const double lr1 = parse_rate("ramp", parts[3]);
  std::size_t attach = 2;
  if (parts.size() == 5) {
    attach = static_cast<std::size_t>(
        util::parse_spec_uint("ramp", parts[4]));
    if (attach == 0) {
      throw std::invalid_argument("ramp attach count must be >= 1 in '" +
                                  param + "'");
    }
  }
  return std::make_unique<RampPhase>(jr0, lr0, jr1, lr1, cs.count, attach);
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
  return std::make_unique<TargetedPhase>(attack,
                                         cs.has_count ? cs.count : 0);
}

std::unique_ptr<ScenarioPhase> parse_until(const std::string& param) {
  const auto parts = split_commas(param);
  if (parts.empty() || parts.size() > 2 || !all_digits(parts[0])) {
    throw std::invalid_argument("bad until phase: 'until:" + param +
                                "' (expected until:<n>[,<attack>])");
  }
  const auto n = util::parse_spec_uint("until", parts[0]);
  if (n == 0) {
    throw std::invalid_argument("until needs n >= 1 in 'until:" + param +
                                "'");
  }
  return std::make_unique<UntilNLeftPhase>(
      static_cast<std::size_t>(n),
      parts.size() == 2 && !parts[1].empty() ? parts[1] : "maxnode");
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
  return std::make_unique<UntilFracPhase>(
      frac, parts.size() == 2 && !parts[1].empty() ? parts[1] : "maxnode");
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
  const std::string inner =
      param.substr(brace + 1, param.size() - brace - 2);
  return std::make_unique<RepeatPhase>(static_cast<std::size_t>(times),
                                       Scenario::parse(inner));
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
           return std::make_unique<PresetPhase>(name,
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

Scenario& Scenario::operator=(const Scenario& other) {
  if (this == &other) return *this;
  phases_.clear();
  phases_.reserve(other.phases_.size());
  for (const auto& p : other.phases_) phases_.push_back(p->clone());
  return *this;
}

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

Scenario& Scenario::strike(std::size_t count, const std::string& attack) {
  return add(std::make_unique<StrikePhase>(attack, count));
}

Scenario& Scenario::batch_strike(std::size_t batch_size, std::size_t rounds,
                                 const std::string& mode) {
  return add(std::make_unique<BatchStrikePhase>(batch_size, mode, rounds));
}

Scenario& Scenario::churn(double join_rate, double leave_rate,
                          std::size_t events, std::size_t attach) {
  return add(
      std::make_unique<ChurnPhase>(join_rate, leave_rate, events, attach));
}

Scenario& Scenario::targeted(const std::string& attack,
                             std::size_t max_deletions) {
  return add(std::make_unique<TargetedPhase>(attack, max_deletions));
}

Scenario& Scenario::targeted(AttackerFactory factory,
                             const std::string& label,
                             std::size_t max_deletions) {
  DASH_CHECK_MSG(factory != nullptr, "null attacker factory");
  return add(std::make_unique<TargetedPhase>(std::move(factory), label,
                                             max_deletions));
}

Scenario& Scenario::until_n_left(std::size_t n, const std::string& attack) {
  return add(std::make_unique<UntilNLeftPhase>(n, attack));
}

Scenario& Scenario::until_fraction(double frac, const std::string& attack) {
  return add(std::make_unique<UntilFracPhase>(frac, attack));
}

Scenario& Scenario::repeat(std::size_t times, Scenario body) {
  return add(std::make_unique<RepeatPhase>(times, std::move(body)));
}

Scenario& Scenario::floor(std::size_t min_alive) {
  return add(std::make_unique<FloorPhase>(min_alive));
}

Scenario& Scenario::add(std::unique_ptr<ScenarioPhase> phase) {
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

Metrics Network::play(const Scenario& scenario, dash::util::Rng& rng) {
  return play(scenario, rng, PlayOptions{});
}

Metrics Network::play(const Scenario& scenario, std::uint64_t seed,
                      const PlayOptions& opts) {
  dash::util::Rng rng(seed);
  return play(scenario, rng, opts);
}

Metrics Network::play(const Scenario& scenario, std::uint64_t seed) {
  return play(scenario, seed, PlayOptions{});
}

}  // namespace dash::api
