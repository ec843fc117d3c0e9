#include "hunt/evaluator.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <string_view>

#include "api/sink.h"
#include "exp/runner.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/registry.h"

namespace dash::hunt {

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = s.find(',', begin);
    out.push_back(s.substr(begin, comma - begin));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

double parse_weight(const std::string& text) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size() || v < 0.0) {
    throw std::invalid_argument("bad fitness weight '" + text +
                                "' (want a number >= 0)");
  }
  return v;
}

std::string spool_path(const std::string& state_dir) {
  return state_dir + "/spool.tsv";
}

constexpr char kGroupSep = '\x1f';  // never appears in JSON output

/// One spool record: the spec, a tab, the fitness bits as hex16, a
/// tab, then `healers` BENCH groups joined by kGroupSep, each one that
/// api::bench_group_runs reads back. False for anything else, e.g. a
/// line torn by an interrupted write.
bool parse_spool_line(const std::string& line, std::size_t healers,
                      std::string& spec, double& fitness,
                      std::vector<std::string>& groups) {
  const std::size_t tab = line.find('\t');
  if (tab == 0 || tab == std::string::npos) return false;
  try {
    util::JsonReader r(std::string_view(line).substr(tab + 1));
    fitness = std::bit_cast<double>(r.hex16());
    r.expect("\t");
    for (std::size_t i = 0; i < healers; ++i) {
      if (i > 0) r.expect(std::string_view(&kGroupSep, 1));
      groups.emplace_back(r.object());
      api::bench_group_runs(groups.back());
    }
    r.end();
  } catch (const util::JsonError&) {
    return false;
  }
  spec = line.substr(0, tab);
  return true;
}

/// Write the record parse_spool_line reads, and its newline.
void write_spool_line(std::ostream& out, const std::string& spec,
                      double fitness,
                      const std::vector<std::string>& groups) {
  out << spec << '\t' << util::hex16(std::bit_cast<std::uint64_t>(fitness))
      << '\t';
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i) out << kGroupSep;
    out << groups[i];
  }
  out << "\n";
}

}  // namespace

FitnessSpec FitnessSpec::parse(const std::string& spec) {
  const util::SpecParts parts = util::split_spec(spec);
  const std::string& name = parts.name;
  const std::string& param = parts.param;
  FitnessSpec out;
  if (name == "delta" && param.empty()) {
    out = {1.0, 0.0, 0.0, "delta"};
  } else if (name == "stretch" && param.empty()) {
    out = {0.0, 1.0, 0.0, "stretch"};
  } else if (name == "disconnect" && param.empty()) {
    out = {0.0, 0.0, 1.0, "disconnect"};
  } else if (name == "combo") {
    const std::vector<std::string> parts = split_commas(param);
    if (parts.size() != 3) {
      throw std::invalid_argument(
          "fitness combo wants 3 weights: combo:<wd>,<ws>,<wc>");
    }
    out.w_delta = parse_weight(parts[0]);
    out.w_stretch = parse_weight(parts[1]);
    out.w_disconnect = parse_weight(parts[2]);
    if (out.w_delta == 0.0 && out.w_stretch == 0.0 &&
        out.w_disconnect == 0.0) {
      throw std::invalid_argument("fitness combo with all-zero weights");
    }
    out.text = "combo:" + util::CsvWriter::to_field(out.w_delta) + "," +
               util::CsvWriter::to_field(out.w_stretch) + "," +
               util::CsvWriter::to_field(out.w_disconnect);
  } else {
    throw std::invalid_argument(
        "unknown fitness '" + spec +
        "'; want delta, stretch, disconnect or combo:<wd>,<ws>,<wc>");
  }
  return out;
}

Evaluator::Evaluator(HuntConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.budget == 0) {
    throw std::invalid_argument("hunt budget must be >= 1");
  }
  if (cfg_.healers.empty()) {
    throw std::invalid_argument("hunt needs at least one healer");
  }
  fitness_ = FitnessSpec::parse(cfg_.fitness);
  stretch_every_ = cfg_.stretch_every;
  if (stretch_every_ == 0 && fitness_.needs_stretch()) stretch_every_ = 8;
  // Validate the target grid eagerly -- family, sizes, healer specs --
  // with a throwaway scenario, so a typo fails before any search runs.
  base_spec({"strike:maxnodex1"}).validate();
  if (!cfg_.state_dir.empty()) {
    std::filesystem::create_directories(cfg_.state_dir);
    if (cfg_.resume) load_spool();
    const std::string path = spool_path(cfg_.state_dir);
    if (!cfg_.resume || !std::filesystem::exists(path)) {
      // Fresh spool: stamp the header.
      spool_.open(path, std::ios::trunc);
      spool_ << "dash-hunt-spool v1 " << config_hash() << "\n";
    } else {
      // Resumed: the loader already rewrote the file with only the
      // complete lines; append after them.
      spool_.open(path, std::ios::app);
    }
    spool_.flush();
    if (!spool_) {
      throw std::invalid_argument("cannot write hunt spool " + path);
    }
  }
}

exp::ExperimentSpec Evaluator::base_spec(
    std::vector<std::string> scenarios) const {
  exp::ExperimentSpec spec;
  spec.name = cfg_.name;
  spec.families = {cfg_.family};
  spec.sizes = {cfg_.n};
  spec.healers = cfg_.healers;
  spec.scenarios = std::move(scenarios);
  spec.instances = cfg_.instances;
  spec.seed = cfg_.seed;
  spec.ba_edges = cfg_.ba_edges;
  spec.stretch_every = stretch_every_;
  spec.labels = "spec";
  return spec;
}

std::vector<exp::Cell> Evaluator::cells_for(
    const AttackGenome& genome) const {
  return base_spec({genome.spec()}).enumerate();
}

std::string Evaluator::config_hash() const {
  std::string identity = "family=" + cfg_.family +
                         " n=" + std::to_string(cfg_.n) +
                         " ba_edges=" + std::to_string(cfg_.ba_edges) +
                         " instances=" + std::to_string(cfg_.instances) +
                         " seed=" + std::to_string(cfg_.seed) +
                         " stretch=" + std::to_string(stretch_every_) +
                         " fitness=" + fitness_.text + " healers=";
  for (const std::string& h : cfg_.healers) identity += h + ";";
  return util::hex16(util::fnv1a64(identity));
}

double Evaluator::evaluate_one(const AttackGenome& genome) {
  return evaluate({genome}).front();
}

std::vector<double> Evaluator::evaluate(
    const std::vector<AttackGenome>& pop) {
  // Pass 1: admit new specs to the ledger while budget remains; collect
  // the ones that still need replays, deduped, in request order.
  std::vector<std::string> fresh;
  for (const AttackGenome& g : pop) {
    const std::string spec = g.spec();
    if (requested_.count(spec) != 0) continue;
    if (used_ >= cfg_.budget) continue;  // arrived too late: unscored
    Evaluated entry;
    entry.order = used_++;
    entry.genome = g;
    requested_.emplace(spec, std::move(entry));
    if (computed_.count(spec) == 0) fresh.push_back(spec);
  }
  if (!fresh.empty()) compute(fresh);

  // Pass 2: read every score out of the cache.
  std::vector<double> out;
  out.reserve(pop.size());
  for (const AttackGenome& g : pop) {
    const auto it = requested_.find(g.spec());
    if (it == requested_.end()) {
      out.push_back(kUnscored);
      continue;
    }
    Evaluated& entry = it->second;
    if (entry.groups.empty()) {
      const Score& score = computed_.at(g.spec());
      entry.fitness = score.fitness;
      entry.groups = score.groups;
    }
    out.push_back(entry.fitness);
  }
  return out;
}

void Evaluator::compute(const std::vector<std::string>& specs) {
  const exp::ExperimentSpec spec = base_spec(specs);
  exp::RunnerOptions opt;
  opt.threads = cfg_.threads;
  const std::vector<exp::CellResult> cells = exp::run(spec, opt);
  // Cell enumeration is healer-major (family x n are singletons):
  // cell index = healer * |specs| + spec.
  DASH_CHECK_MSG(cells.size() == cfg_.healers.size() * specs.size(),
                 "hunt grid returned a wrong-shaped cell list");
  double batch_best = kUnscored;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    Score score;
    for (std::size_t h = 0; h < cfg_.healers.size(); ++h) {
      score.groups.push_back(cells[h * specs.size() + s].group_json);
    }
    score.fitness = score_groups(score.groups);
    batch_best = std::max(batch_best, score.fitness);
    append_spool(specs[s], score);
    computed_[specs[s]] = std::move(score);
  }
  if (cfg_.progress) {
    cfg_.progress("evaluated " + std::to_string(specs.size()) +
                  " candidates (" + std::to_string(used_) + "/" +
                  std::to_string(cfg_.budget) + "), batch best " +
                  util::CsvWriter::to_field(batch_best));
  }
}

double Evaluator::score_groups(
    const std::vector<std::string>& groups) const {
  // Fitness is read back from the group bytes rather than from
  // in-memory Metrics, so a score is a function of exactly the bytes
  // the leaderboard and the spool keep for its candidate -- bytes that
  // are the same at any thread count.
  double sum = 0.0;
  std::size_t runs = 0;
  for (const std::string& group : groups) {
    for (const api::Metrics& run : api::bench_group_runs(group)) {
      double v = 0.0;
      if (fitness_.w_delta > 0.0) {
        v += fitness_.w_delta * run.max_delta;
      }
      if (fitness_.w_stretch > 0.0) {
        v += fitness_.w_stretch * run.max_stretch;
      }
      if (fitness_.w_disconnect > 0.0 && !run.stayed_connected) {
        v += fitness_.w_disconnect *
             (1.0 + 1.0 / (1.0 + static_cast<double>(run.deletions)));
      }
      sum += v;
      ++runs;
    }
  }
  return runs == 0 ? kUnscored : sum / static_cast<double>(runs);
}

std::vector<Evaluated> Evaluator::leaderboard(std::size_t k) const {
  std::vector<Evaluated> all;
  for (const auto& [spec, entry] : requested_) {
    if (!entry.groups.empty()) all.push_back(entry);
  }
  std::sort(all.begin(), all.end(),
            [](const Evaluated& a, const Evaluated& b) {
              if (a.fitness != b.fitness) return a.fitness > b.fitness;
              return a.order < b.order;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void Evaluator::load_spool() {
  const std::string path = spool_path(cfg_.state_dir);
  std::ifstream in(path);
  if (!in) return;  // nothing to resume from: a fresh spool is fine
  std::string line;
  if (!std::getline(in, line)) return;
  const std::string header = "dash-hunt-spool v1 " + config_hash();
  if (line != header) {
    throw std::invalid_argument(
        "hunt spool " + path +
        " was written by a different hunt config; refusing to resume");
  }
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string spec;
    Score score;
    if (parse_spool_line(lines[i], cfg_.healers.size(), spec, score.fitness,
                         score.groups)) {
      computed_[std::move(spec)] = std::move(score);
    } else if (i + 1 < lines.size()) {
      // Resume contract (as for shard files): only the final line may
      // be torn by an interrupted write, and it is dropped; a bad
      // record before it is corruption.
      throw std::invalid_argument("corrupt hunt spool '" + path +
                                  "': bad record on line " +
                                  std::to_string(i + 2));
    }
  }
  in.close();
  // Rewrite with only the lines that survived, so appends never land
  // after a torn tail.
  std::ofstream out(path, std::ios::trunc);
  out << header << "\n";
  for (const auto& [spec, score] : computed_) {
    write_spool_line(out, spec, score.fitness, score.groups);
  }
}

void Evaluator::append_spool(const std::string& spec, const Score& score) {
  if (!spool_.is_open()) return;
  write_spool_line(spool_, spec, score.fitness, score.groups);
  spool_.flush();
}

}  // namespace dash::hunt
