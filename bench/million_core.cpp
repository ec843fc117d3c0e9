// million_core.cpp -- the million-node core benchmark: measures the
// three layers this engine stacks to keep massive self-healing
// overlays interactive, with before/after pairs interleaved in the
// same process so the medians share cache state and allocator history.
//
//   0. build: the set-up every instance pays before its first event --
//      BA(n, 2) generation and api::Network construction (healing
//      state, connectivity tracker), each the median of five builds.
//   1. publish: a delta-patched snapshot publish (the serving path)
//      vs. a from-scratch FlatView rebuild of the same graph -- the
//      cost every publish used to pay.
//   2. stretch: one landmark estimator sample (k bit-parallel BFS
//      waves + pair bounds) vs. the exact all-pairs tracker sample.
//      The exact side is O(n^2) memory and O(n*m) time, so it only
//      runs when n <= --exact-limit; above that the bench prints the
//      extrapolated infeasibility instead (at n=10^6 the APSP matrix
//      alone is ~4 TB).
//   3. end-to-end: a churned, healed, served network with estimate-
//      mode stretch sampling riding along -- the acceptance run: at
//      --n 1000000 this completes in minutes on one vCPU.
//   4. victims: per-round p50/p99 of the attack's victim choice and of
//      Network::remove (dash, tracker on, nothing served or observed)
//      for strike:random and strike:neighborofmax, --churn-rounds
//      rounds each on a fresh graph -- the mutation path whose cost
//      must not grow with n.
//   5. battery: the median of five invariant batteries through the
//      public InvariantObserver, Lemma 4's rem bound off and on, on
//      the network targeted:neighborofmax leaves after n/2 deletions
//      (half the nodes dead, G' grown by the heals) -- the check the
//      paper's guarantees rest on, at the scale they are claimed for.
//      A violation in either battery makes the exit code 1, once the
//      ledger line is out.
//
// The last line is one JSON object: each section's medians under the
// metric names of BENCH_perf_ledger.json, plus the process's peak RSS
// (peak_rss_mb), so a ledger entry is read from the output, not
// scraped from the tables.
//
// Run `million_core --n 1000000` for the headline numbers; defaults
// keep a laptop run under a minute.
#include <sys/resource.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stretch.h"
#include "analysis/stretch_estimator.h"
#include "api/api.h"
#include "api/serve.h"
#include "attack/factory.h"
#include "graph/flat_view.h"
#include "graph/generators.h"
#include "graph/snapshot_store.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using dash::graph::FlatView;
using dash::graph::Graph;
using dash::graph::NodeId;
using dash::util::Rng;
using dash::util::Timer;

/// Ledger metrics in the order the sections record them.
using Ledger = std::vector<std::pair<std::string, double>>;

double median_of(std::vector<double> xs) {
  return dash::util::quantile(std::move(xs), 0.5);
}

/// A small healing-shaped edit: delete one node and chain its former
/// neighbors back together, plus a couple of edge toggles. Touches
/// O(degree) vertices -- the footprint one heal round leaves in the
/// touched log.
void churn_step(Graph& g, std::vector<NodeId>& alive, Rng& rng) {
  if (alive.size() > 16) {
    const std::size_t at = static_cast<std::size_t>(rng.below(alive.size()));
    const NodeId victim = alive[at];
    const auto orphans = g.delete_node(victim);
    alive[at] = alive.back();
    alive.pop_back();
    for (std::size_t i = 1; i < orphans.size(); ++i) {
      g.add_edge(orphans[i - 1], orphans[i]);
    }
  }
  for (int t = 0; t < 2; ++t) {
    const NodeId a = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const NodeId b = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    if (a == b) continue;
    if (g.has_edge(a, b)) {
      g.remove_edge(a, b);
    } else {
      g.add_edge(a, b);
    }
  }
}

void bench_build(std::size_t n, std::uint64_t seed, Ledger& ledger) {
  constexpr int kBuilds = 5;
  std::vector<double> ba_ms, network_ms;
  for (int b = 0; b < kBuilds; ++b) {
    Rng rng(seed);
    Timer t_ba;
    Graph g = dash::graph::barabasi_albert(n, 2, rng);
    ba_ms.push_back(t_ba.millis());
    Timer t_network;
    const dash::api::Network net(std::move(g), "dash", seed);
    network_ms.push_back(t_network.millis());
  }
  std::cout << "BA(" << n << ", 2) generation: median " << median_of(ba_ms)
            << " ms; Network construction: median " << median_of(network_ms)
            << " ms (of " << kBuilds << " builds each)\n";
  ledger.emplace_back("build.ba_ms", median_of(ba_ms));
  ledger.emplace_back("build.network_ms", median_of(network_ms));
}

void bench_publish(std::size_t n, std::size_t rounds, std::uint64_t seed,
                   Ledger& ledger) {
  Rng rng(seed);
  Graph g = dash::graph::barabasi_albert(n, 2, rng);
  std::vector<NodeId> alive = g.alive_nodes();

  dash::graph::SnapshotStore store;
  store.publish(g);  // full rebuild into buffer A
  store.publish(g);  // full rebuild into buffer B; patched from here on

  // The CSR-maintenance pair: a persistent view dragged forward by the
  // touched log vs a from-scratch rebuild, interleaved on the same
  // graph state each round. store.publish additionally relabels
  // components (paid identically by both publish flavors), so its
  // median is reported as context, not as the comparison.
  FlatView persistent;
  persistent.refresh(g);
  FlatView scratch;
  std::vector<double> full_ms, patched_ms, publish_ms;
  full_ms.reserve(rounds);
  patched_ms.reserve(rounds);
  publish_ms.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    churn_step(g, alive, rng);
    Timer t_full;
    scratch.rebuild(g);
    full_ms.push_back(t_full.millis());
    Timer t_patch;
    persistent.refresh(g);
    patched_ms.push_back(t_patch.millis());
    Timer t_pub;
    store.publish(g);
    publish_ms.push_back(t_pub.millis());
  }

  const double full_med = median_of(full_ms);
  const double patched_med = median_of(patched_ms);
  dash::util::Table table({"csr path", "median_ms", "speedup"});
  table.begin_row()
      .cell("full rebuild (before)")
      .cell(full_med, 4)
      .cell("1.0x");
  table.begin_row()
      .cell("delta patched (after)")
      .cell(patched_med, 4)
      .cell(patched_med > 0
                ? std::to_string(full_med / patched_med).substr(0, 6) + "x"
                : "inf");
  table.print(std::cout);
  std::cout << "view: " << persistent.patched_refreshes() << " patched / "
            << persistent.full_rebuilds() << " full refreshes; "
            << "publish median (patch + component labelling): "
            << median_of(publish_ms) << " ms\n"
            << "store split: " << store.full_publishes() << " full / "
            << store.patched_publishes() << " patched publishes, "
            << store.touched_vertices() << " vertices re-mirrored\n";
  ledger.emplace_back("csr_patch_ms", patched_med);
  ledger.emplace_back("publish_ms", median_of(publish_ms));
}

void bench_stretch(std::size_t n, std::size_t landmarks, std::size_t pairs,
                   std::size_t samples, std::size_t exact_limit,
                   std::uint64_t seed, Ledger& ledger) {
  Rng rng(seed);
  Graph g = dash::graph::barabasi_albert(n, 2, rng);

  Timer t_build;
  dash::analysis::StretchEstimator estimator(
      g, {.landmarks = landmarks, .pairs = pairs, .seed = seed});
  const double build_ms = t_build.millis();

  // Only build the exact tracker when the APSP matrix fits; above the
  // limit the "before" column is reported as infeasible.
  const bool exact_ok = n <= exact_limit;
  std::unique_ptr<dash::analysis::StretchTracker> tracker;
  if (exact_ok) {
    tracker = std::make_unique<dash::analysis::StretchTracker>(g);
  }

  std::vector<NodeId> alive = g.alive_nodes();
  std::vector<double> est_ms, exact_ms;
  for (std::size_t s = 0; s < samples; ++s) {
    for (int i = 0; i < 8; ++i) churn_step(g, alive, rng);
    if (exact_ok) {
      Timer t_exact;
      (void)tracker->stretch_stats(g);
      exact_ms.push_back(t_exact.millis());
    }
    Timer t_est;
    (void)estimator.estimate(g);
    est_ms.push_back(t_est.millis());
  }

  dash::util::Table table({"sampler", "median_ms", "notes"});
  if (exact_ok) {
    table.begin_row()
        .cell("exact all-pairs (before)")
        .cell(median_of(exact_ms), 3)
        .cell("n^2 pairs, 64-source waves");
  } else {
    const double gib =
        static_cast<double>(n) * static_cast<double>(n) * 4.0 / (1u << 30);
    table.begin_row()
        .cell("exact all-pairs (before)")
        .cell("infeasible")
        .cell("APSP matrix ~" + std::to_string(gib).substr(0, 8) + " GiB");
  }
  table.begin_row()
      .cell("landmark estimate (after)")
      .cell(median_of(est_ms), 3)
      .cell(std::to_string(landmarks) + " landmarks, " +
            std::to_string(pairs) + " pairs");
  table.print(std::cout);
  std::cout << "estimator build (landmark selection): " << build_ms
            << " ms\n";
  ledger.emplace_back("estimate_sample_ms", median_of(est_ms));
}

void bench_end_to_end(std::size_t n, std::size_t rounds,
                      std::size_t stretch_every, std::size_t landmarks,
                      std::size_t pairs, std::uint64_t seed,
                      Ledger& ledger) {
  Rng rng(seed);
  Graph g = dash::graph::barabasi_albert(n, 2, rng);

  Timer t_all;
  dash::api::Network net(std::move(g), "dash", seed);
  dash::api::ServeHandle& serve = net.serve();

  dash::api::StretchObserverOptions stretch_opts;
  stretch_opts.sample_every = stretch_every;
  stretch_opts.estimate = true;
  stretch_opts.landmarks = landmarks;
  stretch_opts.pairs = pairs;
  auto observer = std::make_unique<dash::api::StretchObserver>(stretch_opts);
  const dash::api::StretchObserver* stretch = observer.get();
  net.add_observer(std::move(observer));

  // Deletion churn: joins would (correctly) deactivate stretch
  // sampling, since joined nodes have no time-0 distance rows.
  const auto scenario = dash::api::Scenario::parse(
      "strike:randomx" + std::to_string(rounds));
  Rng play_rng(seed + 1);
  const auto metrics = net.play(scenario, play_rng);
  const double secs = t_all.seconds();

  std::cout << "end-to-end: n=" << n << " rounds=" << rounds << " in "
            << secs << " s (" << (secs / static_cast<double>(rounds) * 1e3)
            << " ms/round)\n"
            << "  publishes: " << serve.store().full_publishes() << " full / "
            << serve.store().patched_publishes() << " patched ("
            << serve.store().touched_vertices() << " vertices re-mirrored)\n"
            << "  stretch upper bound (last sample): "
            << stretch->last_sample()
            << ", connected=" << (metrics.stayed_connected ? "yes" : "NO")
            << "\n";
  ledger.emplace_back("end_to_end_s", secs);
}

void bench_victims(std::size_t n, std::size_t rounds, std::uint64_t seed,
                   Ledger& ledger) {
  dash::util::Table table({"attack", "choice_p50_us", "choice_p99_us",
                           "remove_p50_us", "remove_p99_us"});
  for (const std::string name : {"random", "neighborofmax"}) {
    Rng rng(seed);
    dash::api::Network net(dash::graph::barabasi_albert(n, 2, rng), "dash",
                           seed);
    auto atk = dash::attack::make_attack(name, seed);
    std::vector<double> choice_us, remove_us;
    choice_us.reserve(rounds);
    remove_us.reserve(rounds);
    for (std::size_t r = 0; r < rounds && net.graph().num_alive() > 1; ++r) {
      Timer t_choice;
      const NodeId v = atk->select(net.graph(), net.state());
      choice_us.push_back(t_choice.millis() * 1e3);
      if (v == dash::graph::kInvalidNode) break;
      Timer t_remove;
      net.remove(v);
      remove_us.push_back(t_remove.millis() * 1e3);
    }
    const auto q = [](const std::vector<double>& xs, double p) {
      return dash::util::quantile(xs, p);
    };
    table.begin_row()
        .cell(name)
        .cell(q(choice_us, 0.5), 2)
        .cell(q(choice_us, 0.99), 2)
        .cell(q(remove_us, 0.5), 2)
        .cell(q(remove_us, 0.99), 2);
    ledger.emplace_back(name + ".choice_p50_us", q(choice_us, 0.5));
    ledger.emplace_back(name + ".choice_p99_us", q(choice_us, 0.99));
    ledger.emplace_back(name + ".remove_p50_us", q(remove_us, 0.5));
    ledger.emplace_back(name + ".remove_p99_us", q(remove_us, 0.99));
  }
  table.print(std::cout);
}

/// Returns false when either battery reports a violation.
bool bench_battery(std::size_t n, std::uint64_t seed, Ledger& ledger) {
  Rng rng(seed);
  dash::api::Network net(dash::graph::barabasi_albert(n, 2, rng), "dash",
                         seed);
  Timer t_play;
  const auto scenario = dash::api::Scenario::parse(
      "targeted:neighborofmaxx" + std::to_string(n / 2));
  Rng play_rng(seed + 2);
  net.play(scenario, play_rng);
  const double play_s = t_play.seconds();
  ledger.emplace_back("battery_setup_play_s", play_s);
  std::cout << "played " << net.metrics().deletions
            << " neighborofmax deletions in " << play_s << " s; "
            << net.graph().num_alive() << " alive, "
            << net.state().num_healing_edges() << " healing edges\n";

  bool all_hold = true;
  for (const bool rem : {false, true}) {
    // battery_every = 0: no per-round batteries, one end-state sweep
    // per on_finish -- a battery over the whole state. The observer
    // runs kBatteries of them on the same state, reusing its buffers as
    // a checked run does; the median keeps the first, cold one out.
    constexpr int kBatteries = 5;
    dash::api::InvariantObserver battery(
        {.check_rem_bound = rem, .battery_every = 0});
    battery.on_attach(net);
    std::vector<double> ms;
    for (int i = 0; i < kBatteries; ++i) {
      dash::api::Metrics out;
      Timer t_battery;
      battery.on_finish(net, out);
      ms.push_back(t_battery.millis());
    }
    const double median = median_of(ms);
    // Flushed per line: a slow rem-on battery leaves the rem-off line.
    std::cout << "battery, rem bound " << (rem ? "on: " : "off: ")
              << "median " << median << " ms of " << kBatteries
              << " (first " << ms.front() << " ms), "
              << (battery.ok() ? "all hold" : battery.violation())
              << std::endl;
    ledger.emplace_back(rem ? "battery_rem_on_ms" : "battery_rem_off_ms",
                        median);
    all_hold &= battery.ok();
  }
  return all_hold;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_ledger(const Ledger& ledger) {
  std::cout << '{';
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ")
              << dash::util::json_string(ledger[i].first) << ": "
              << dash::util::CsvWriter::to_field(ledger[i].second);
  }
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 50000, seed = 97;
  std::uint64_t publish_rounds = 200, stretch_samples = 5;
  std::uint64_t landmarks = 16, pairs = 256;
  std::uint64_t exact_limit = 8192;
  std::uint64_t churn_rounds = 500, stretch_every = 64;
  dash::util::Options opt(
      "Million-node core: slab graph, patched publishes, landmark stretch");
  opt.add_uint("n", &n, "graph size (use 1000000 for the headline run)");
  opt.add_uint("seed", &seed, "RNG seed");
  opt.add_uint("publish-rounds", &publish_rounds,
               "interleaved full/patched publish pairs");
  opt.add_uint("stretch-samples", &stretch_samples,
               "stretch samples per sampler");
  opt.add_uint("landmarks", &landmarks, "estimator landmarks (<= 64)");
  opt.add_uint("pairs", &pairs, "estimator sampled pairs");
  opt.add_uint("exact-limit", &exact_limit,
               "largest n that still runs the exact O(n^2) sampler");
  opt.add_uint("churn-rounds", &churn_rounds,
               "end-to-end churn rounds, and victim rounds per attack");
  opt.add_uint("stretch-every", &stretch_every,
               "end-to-end stretch sampling cadence");
  if (!opt.parse(argc, argv)) return opt.help_requested() ? 0 : 2;

  std::cout << "\n== million_core: BA(" << n << ", 2), seed " << seed
            << " ==\n\n-- build: BA generation + Network construction --\n";
  Ledger ledger;
  bench_build(n, seed, ledger);

  std::cout << "\n-- publish path: full rebuild vs delta patch --\n";
  bench_publish(n, publish_rounds, seed, ledger);

  std::cout << "\n-- stretch sample: exact vs landmark bounds --\n";
  bench_stretch(n, landmarks, pairs, stretch_samples, exact_limit, seed,
                ledger);

  std::cout << "\n-- end-to-end churn + serve + estimate-mode sampling --\n";
  bench_end_to_end(n, churn_rounds, stretch_every, landmarks, pairs, seed,
                   ledger);

  std::cout << "\n-- per-round victim choice + Network::remove --\n";
  bench_victims(n, churn_rounds, seed, ledger);

  std::cout << "\n-- five invariant batteries after n/2 neighborofmax "
               "deletions --\n";
  const bool batteries_hold = bench_battery(n, seed, ledger);

  const double rss = peak_rss_mb();
  std::cout << "\npeak RSS: " << rss << " MB\n";
  ledger.emplace_back("peak_rss_mb", rss);
  print_ledger(ledger);
  return batteries_hold ? 0 : 1;
}
