// serve_test.cpp -- the concurrent serving engine (Network::serve):
// one epoch published per event, queries served from pinned snapshots
// while play() mutates on another thread, the one-shot ServeReader
// conveniences, and serve-bench's rows CSV (byte-identical to an
// unserved run) and JSON document.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "api/network.h"
#include "api/scenario.h"
#include "api/serve.h"
#include "api/serve_bench.h"
#include "api/sink.h"
#include "graph/generators.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using dash::util::Rng;

graph::Graph make_ba(std::size_t n, std::uint64_t seed = 5) {
  Rng rng(seed);
  return graph::barabasi_albert(n, 2, rng);
}

TEST(Serve, PublishesInitialStateOnAttach) {
  Network net(make_ba(64), "dash", 1);
  ServeHandle& serve = net.serve();
  EXPECT_EQ(serve.epoch(), 1u);  // initial state, before any play()
  ServeReader reader = serve.reader();
  EXPECT_EQ(reader.epoch(), 1u);
  EXPECT_EQ(reader.pin().alive(), 64u);
}

TEST(Serve, ServeIsIdempotentPerNetwork) {
  Network net(make_ba(16), "dash", 1);
  ServeHandle& a = net.serve();
  ServeHandle& b = net.serve();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(net.serve_handle(), &a);
}

TEST(Serve, EpochAdvancesWithMutationEvents) {
  Network net(make_ba(64), "dash", 1);
  MemorySink rows;
  net.add_observer(std::make_unique<SinkObserver>(rows));
  ServeHandle& serve = net.serve();
  EXPECT_EQ(serve.epoch(), 1u);  // attach publish
  Rng rng(2);
  net.play(Scenario::parse("churn:0.3,0.1x50"), rng);
  // Cadence 1: attach + one publish per mutation event (exactly the
  // events SinkObserver saw as rows) + the unconditional finish.
  EXPECT_EQ(serve.epoch(), 1 + rows.rows().size() + 1);
  EXPECT_GT(rows.rows().size(), 0u);
}

TEST(Serve, QueriesDuringPlayOnBackgroundThread) {
  Network net(make_ba(512), "dash", 3);
  ServeHandle& serve = net.serve();
  ServeReader reader = serve.reader();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  std::thread t([&, reader = std::move(reader)]() mutable {
    Rng pick(11);
    while (!stop.load(std::memory_order_relaxed)) {
      ServePin pin = reader.pin();
      const graph::FlatView& view = pin.snapshot().view();
      if (view.num_alive() < 2) continue;
      const graph::NodeId u = view.kth_alive(
          static_cast<std::size_t>(pick.below(view.num_alive())));
      const graph::NodeId v = view.kth_alive(
          static_cast<std::size_t>(pick.below(view.num_alive())));
      if (pin.connected(u, v) != pin.distance(u, v).has_value()) {
        torn.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  });

  Rng rng(4);
  net.play(Scenario::parse("churn:0.3,0.1x300"), rng);
  // The store keeps serving after play() (finish published the final
  // state): wait until the reader has demonstrably made progress
  // before stopping it, so the assertion is robust under CI load even
  // when play() outruns thread startup.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), 10u);
  // finish() published the final state: a fresh reader sees the
  // network exactly as the mutation side left it.
  ServeReader after = serve.reader();
  EXPECT_EQ(after.pin().alive(), net.graph().num_alive());
}

TEST(Serve, OneShotConveniencesMatchPinnedQueries) {
  Network net(make_ba(64), "dash", 1);
  ServeHandle& serve = net.serve();
  ServeReader reader = serve.reader();
  EXPECT_EQ(reader.largest_component(), 64u);
  EXPECT_EQ(reader.component_count(), 1u);
  EXPECT_TRUE(reader.connected(0, 63));
  EXPECT_TRUE(reader.distance(0, 63).has_value());
}

TEST(Serve, ExplicitPublishBetweenEvents) {
  Network net(make_ba(32), "dash", 1);
  ServeHandle& serve = net.serve();
  const std::uint64_t e = serve.epoch();
  EXPECT_EQ(serve.publish(), e + 1);
  EXPECT_EQ(serve.epoch(), e + 1);
}

TEST(Serve, NestedParallelForOverServeReads) {
  // The serve read path from inside pool tasks -- including a nested
  // parallel_for whose caller-runner participates -- must stay safe:
  // make_reader() is any-thread, pins are per-reader, and nothing on
  // the read path touches pool state.
  Network net(make_ba(256), "dash", 7);
  ServeHandle& serve = net.serve();
  Rng rng(8);
  net.play(Scenario::parse("churn:0.3,0.1x100"), rng);

  util::ThreadPool pool(4);
  std::atomic<std::size_t> torn{0};
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(4, [&](std::size_t inner) {
      ServeReader reader = serve.reader();
      ServePin pin = reader.pin();
      const graph::FlatView& view = pin.snapshot().view();
      if (view.num_alive() < 2) return;
      Rng pick(100 + outer * 8 + inner);
      for (int q = 0; q < 20; ++q) {
        const graph::NodeId u = view.kth_alive(
            static_cast<std::size_t>(pick.below(view.num_alive())));
        const graph::NodeId v = view.kth_alive(
            static_cast<std::size_t>(pick.below(view.num_alive())));
        if (pin.connected(u, v) != pin.distance(u, v).has_value()) {
          torn.fetch_add(1);
        }
      }
    });
  });
  EXPECT_EQ(torn.load(), 0u);
}

// ---- serve-bench -----------------------------------------------------------

TEST(ServeBench, RowsMatchAnUnservedRun) {
  // The rows CSV is written while readers pin snapshots on other
  // threads; it must hold exactly the bytes a CsvStreamSink gets from
  // the same network played without serve() or readers.
  const std::string path = ::testing::TempDir() + "dash_serve_rows.csv";
  ServeBenchConfig cfg;
  cfg.n = 512;
  cfg.scenario = "churn:0.3,0.1x400";
  cfg.reader_counts = {2};
  cfg.rows_path = path;
  ASSERT_TRUE(run_serve_bench(cfg).ok());

  std::ostringstream want;
  {
    Rng graph_rng(cfg.seed);
    Network net(graph::barabasi_albert(cfg.n, cfg.attach, graph_rng),
                cfg.healer, cfg.seed);
    CsvStreamSink sink(want);
    net.add_observer(std::make_unique<SinkObserver>(sink));
    Rng play_rng(cfg.seed + 1);
    net.play(Scenario::parse(cfg.scenario), play_rng);
    sink.flush();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream got;
  got << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(got.str(), want.str());
  EXPECT_FALSE(want.str().empty());
}

TEST(ServeBench, UnwritableRowsPathFailsBeforeAnyRound) {
  // The healer is only built inside a round, so an error naming the
  // rows path (and not the bogus healer) means no round ran.
  ServeBenchConfig cfg;
  cfg.n = 64;
  cfg.healer = "bogus";
  cfg.reader_counts = {1, 2};
  cfg.rows_path = ::testing::TempDir() + "dash_no_such_dir/rows.csv";
  try {
    (void)run_serve_bench(cfg);
    FAIL() << "an unwritable rows path was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write rows to"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeBench, JsonEscapesHealerAndScenario) {
  // A quote in --scenario once ended the JSON string early.
  ServeBenchConfig cfg;
  cfg.healer = "capped:\"2\"";
  cfg.scenario = "trace:run \"a\"\\b.trace";
  std::ostringstream os;
  render_serve_json(cfg, ServeBenchReport{}, os);
  const std::string doc = os.str();
  for (const auto& [key, want] :
       {std::pair<std::string, std::string>{"\"healer\": ", cfg.healer},
        {"\"scenario\": ", cfg.scenario}}) {
    const std::size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    util::JsonReader r(std::string_view(doc).substr(at + key.size()));
    EXPECT_EQ(r.string(), want);
    r.expect(",\n");
  }
  // The pretty layout the serve smoke test matches stays.
  EXPECT_NE(doc.find("\n  \"torn_reads\": 0,\n"), std::string::npos);
}

}  // namespace
}  // namespace dash::api
