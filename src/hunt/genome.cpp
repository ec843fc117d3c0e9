#include "hunt/genome.h"

#include "util/csv.h"
#include "util/hash.h"

namespace dash::hunt {

const GenomeLimits& genome_limits() {
  static const GenomeLimits limits;
  return limits;
}

std::string Move::spec() const {
  const auto rate = [](double v) { return util::CsvWriter::to_field(v); };
  std::string out;
  switch (kind) {
    case Kind::kStrike:
      out = "strike:";
      out += attack;
      break;
    case Kind::kBatch:
      out = "batch:";
      out += std::to_string(batch_size);
      out += ',';
      out += batch_mode;
      break;
    case Kind::kChurn:
      out = "churn:";
      out += rate(join_rate);
      out += ',';
      out += rate(leave_rate);
      break;
    case Kind::kJoin:
      out = "join:";
      out += std::to_string(attach);
      break;
    case Kind::kRamp:
      out = "ramp:";
      out += rate(join_rate);
      out += ',';
      out += rate(leave_rate);
      out += ',';
      out += rate(join_rate_end);
      out += ',';
      out += rate(leave_rate_end);
      break;
    case Kind::kMix:
      out = "mix:";
      for (std::size_t i = 0; i < mix_arms.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(mix_arms[i].first);
        out += '{';
        out += mix_arms[i].second.spec();
        out += '}';
      }
      break;
  }
  if ((kind == Kind::kChurn || kind == Kind::kRamp) && attach != 2) {
    out += ',';
    out += std::to_string(attach);
  }
  out += 'x';
  out += std::to_string(count);
  return out;
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
