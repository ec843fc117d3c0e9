#include "hunt/hunt.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/sink.h"
#include "attack/level_attack.h"
#include "core/factory.h"
#include "exp/spec.h"
#include "graph/generators.h"
#include "hunt/mutation.h"
#include "hunt/strategy.h"
#include "replay/recorder.h"
#include "util/csv.h"

namespace dash::hunt {

namespace {

/// The top-k groups reassembled into one BENCH document, each group's
/// label object led by "rank" and "fitness" -- plain string surgery on
/// bytes the sink already rendered, so everything else stays identical.
std::string leaderboard_document(const std::vector<Evaluated>& top) {
  static const std::string kLabels = "{\"labels\":{";
  std::vector<std::string> groups;
  for (std::size_t i = 0; i < top.size(); ++i) {
    for (const std::string& group : top[i].groups) {
      if (group.compare(0, kLabels.size(), kLabels) != 0) {
        throw std::logic_error("hunt leaderboard: group without labels");
      }
      std::string stamped = "\"rank\":\"" + std::to_string(i + 1) +
                            "\",\"fitness\":\"" +
                            util::CsvWriter::to_field(top[i].fitness) + "\"";
      if (group[kLabels.size()] != '}') stamped += ',';
      groups.push_back(kLabels + stamped + group.substr(kLabels.size()));
    }
  }
  std::ostringstream out;
  api::write_bench_document(out, groups);
  return out.str();
}

/// Re-record one winner as a replayable trace by reproducing the RNG
/// stream of its evaluation cell's *first* instance: run_suite forks
/// instance i's stream as seeder(base_seed).fork(i + 1), and
/// record_scenario mirrors the suite's construction order exactly, so
/// the trace's events -- and its strict replay digests -- match the
/// run the leaderboard scored.
std::string emit_trace(const Evaluator& eval, const Evaluated& entry,
                       std::size_t rank, const std::string& dir) {
  const HuntConfig& cfg = eval.config();
  const std::vector<exp::Cell> cells = eval.cells_for(entry.genome);
  const exp::Cell& cell = cells.front();  // first healer's cell

  replay::RecordConfig rc;
  rc.make_graph = exp::make_family(cell.family, cell.n, cfg.ba_edges);
  rc.healer = cell.healer;
  rc.scenario = entry.genome.to_scenario();
  rc.seed = cell.seed;

  std::filesystem::create_directories(dir);
  const std::string path = dir + "/HUNT_" + cfg.name + "_best" +
                           std::to_string(rank) + ".trace";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::invalid_argument("cannot write hunt trace " + path);
  }
  util::Rng seeder(cell.seed);
  util::Rng rng = seeder.fork(1);
  replay::record_scenario(rc, rng, out);
  return path;
}

}  // namespace

HuntResult run_hunt(const HuntConfig& cfg) {
  Evaluator eval(cfg);
  util::Rng rng(cfg.seed ^ 0x48554e54ULL);  // hunt stream != suite stream
  make_search_strategy(cfg.strategy)->run(eval, rng);
  // A strategy may return with budget left only on a pathological
  // stall; top it up with random probes so "budget" means budget.
  std::size_t stall = 0;
  while (!eval.exhausted() && stall < 1000) {
    const std::size_t before = eval.evaluations();
    eval.evaluate_one(random_genome(rng));
    stall = eval.evaluations() == before ? stall + 1 : 0;
  }

  HuntResult result;
  result.evaluations = eval.evaluations();
  const std::vector<Evaluated> top = eval.leaderboard(cfg.top_k);
  result.leaderboard_json = leaderboard_document(top);

  if (!cfg.state_dir.empty()) {
    std::filesystem::create_directories(cfg.state_dir);
    result.leaderboard_path =
        cfg.state_dir + "/HUNT_" + cfg.name + ".json";
    std::ofstream out(result.leaderboard_path,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::invalid_argument("cannot write hunt leaderboard " +
                                  result.leaderboard_path);
    }
    out << result.leaderboard_json;
  }

  const std::string trace_dir =
      cfg.trace_dir.empty() ? cfg.state_dir : cfg.trace_dir;
  for (std::size_t i = 0; i < top.size(); ++i) {
    HuntBest best;
    best.rank = i + 1;
    best.genome = top[i].genome;
    best.fitness = top[i].fitness;
    if (!trace_dir.empty()) {
      best.trace_path = emit_trace(eval, top[i], i + 1, trace_dir);
    }
    result.best.push_back(std::move(best));
  }
  return result;
}

LevelBaseline level_attack_baseline(std::size_t n, std::uint32_t m,
                                    std::uint64_t seed) {
  const std::size_t arity = m + 2;
  // Largest complete (m+2)-ary tree with at most n nodes.
  std::size_t depth = 0;
  std::size_t count = 1;
  std::size_t level = 1;
  while (true) {
    level *= arity;
    if (count + level > n) break;
    count += level;
    ++depth;
  }
  if (depth == 0) {
    throw std::invalid_argument(
        "level_attack_baseline: n=" + std::to_string(n) +
        " cannot hold a depth-1 " + std::to_string(arity) + "-ary tree");
  }

  const graph::KaryTree tree = graph::complete_kary_tree(arity, depth);
  util::Rng rng(seed);
  graph::Graph g = tree.g;
  api::Network net(std::move(g),
                   core::make_strategy("capped:" + std::to_string(m)), rng);
  attack::LevelAttack attack(tree, m);
  while (net.graph().num_alive() > 1) {
    const graph::NodeId victim = attack.select(net.graph(), net.state());
    if (victim == graph::kInvalidNode) break;
    net.remove(victim);
  }
  const api::Metrics metrics = net.finish();

  LevelBaseline out;
  out.nodes = count;
  out.depth = depth;
  out.m = m;
  out.fitness = static_cast<double>(metrics.max_delta);
  return out;
}

}  // namespace dash::hunt
