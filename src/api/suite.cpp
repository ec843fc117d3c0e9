#include "api/suite.h"

#include <utility>

#include "api/observers.h"
#include "util/check.h"

namespace dash::api {

namespace {

std::vector<Metrics> run_suite_impl(const SuiteConfig& cfg,
                                    dash::util::ThreadPool* pool) {
  DASH_CHECK_MSG(cfg.make_graph && cfg.make_healer,
                 "run_suite needs make_graph and make_healer");
  DASH_CHECK_MSG(!cfg.scenario.empty(), "run_suite needs a scenario");
  for (MetricSink* sink : cfg.sinks) {
    DASH_CHECK_MSG(sink != nullptr, "null sink in SuiteConfig");
  }

  std::vector<Metrics> results(cfg.instances);
  const bool want_rows = cfg.record_rows && !cfg.sinks.empty();
  // Per-instance row buffers: workers write privately, the emission
  // loop below replays them in index order.
  std::vector<MemorySink> buffers(want_rows ? cfg.instances : 0);
  const bool keep_engines = static_cast<bool>(cfg.inspect);
  std::vector<std::unique_ptr<Network>> engines(
      keep_engines ? cfg.instances : 0);

  auto run_one = [&](std::size_t i) {
    // Each instance owns an independent deterministic stream derived
    // from (base_seed, i): graph generation, healing-state ids, and
    // every coin the scenario flips come from it in a fixed order, so
    // results do not depend on thread scheduling.
    dash::util::Rng seeder(cfg.base_seed);
    dash::util::Rng rng = seeder.fork(i + 1);
    graph::Graph g = cfg.make_graph(rng);
    auto net =
        std::make_unique<Network>(std::move(g), cfg.make_healer(), rng);
    if (cfg.configure) cfg.configure(*net);
    if (want_rows) {
      // configure() ran first, so a StretchObserver it registered is a
      // visible producer: wire its samples into the rows.
      const auto* stretch = dynamic_cast<const StretchObserver*>(
          net->find_observer("stretch"));
      net->add_observer(
          std::make_unique<SinkObserver>(buffers[i], stretch, i));
    }
    results[i] = net->play(cfg.scenario, rng);
    if (keep_engines) engines[i] = std::move(net);
  };

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(cfg.instances, run_one);
  } else {
    for (std::size_t i = 0; i < cfg.instances; ++i) run_one(i);
  }

  // Deterministic output: instance order, rows before the run
  // summary. Sinks are NOT flushed here -- a sink may span
  // several suites (one JSON group per sweep cell); whoever owns the
  // sink flushes it when all production is done.
  for (std::size_t i = 0; i < cfg.instances; ++i) {
    for (MetricSink* sink : cfg.sinks) {
      if (want_rows) {
        for (const RoundRow& row : buffers[i].rows()) sink->on_row(row);
      }
      sink->on_run(i, results[i]);
    }
  }

  if (keep_engines) {
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      cfg.inspect(i, *engines[i], results[i]);
    }
  }
  return results;
}

}  // namespace

std::vector<Metrics> run_suite(const SuiteConfig& cfg) {
  return run_suite_impl(cfg, nullptr);
}

std::vector<Metrics> run_suite(const SuiteConfig& cfg,
                               dash::util::ThreadPool& pool) {
  return run_suite_impl(cfg, &pool);
}

dash::util::Summary summarize_metric(
    const std::vector<Metrics>& results,
    const std::function<double(const Metrics&)>& metric) {
  std::vector<double> xs;
  xs.reserve(results.size());
  for (const auto& r : results) xs.push_back(metric(r));
  return dash::util::summarize(xs);
}

}  // namespace dash::api
