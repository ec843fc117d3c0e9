// sink_test.cpp -- the MetricSink output layer: SinkObserver row
// production (single rounds, batch rounds, joins, stretch samples),
// the in-memory / CSV-streaming / JSON-summary sinks, the BENCH group
// and document format read back strictly, and sink feeding through
// run_suite.
#include "api/sink.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using dash::util::Rng;
using graph::Graph;

Network make_net(std::size_t n, std::uint64_t seed,
                 const std::string& healer = "dash") {
  Rng rng(seed);
  Graph g = graph::barabasi_albert(n, 2, rng);
  return Network(std::move(g), core::make_strategy(healer), rng);
}

TEST(SinkObserver, CapturesEveryRoundAndTheRunSummary) {
  auto net = make_net(64, 10);
  MemorySink sink;
  SinkObserver observer(sink);
  net.add_observer(&observer);
  const Metrics m = net.play(Scenario::parse("strike:15"), 10);

  ASSERT_EQ(sink.rows().size(), m.deletions);
  // Rounds are 1-based and alive counts strictly decrease.
  for (std::size_t i = 0; i < sink.rows().size(); ++i) {
    EXPECT_EQ(sink.rows()[i].round, i + 1);
    EXPECT_EQ(sink.rows()[i].alive, 64 - (i + 1));
    EXPECT_EQ(sink.rows()[i].largest_component, 64 - (i + 1));
    EXPECT_FALSE(sink.rows()[i].is_join);
  }
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].first, 0u);
  EXPECT_EQ(sink.runs()[0].second.deletions, 15u);
}

TEST(SinkObserver, BatchRoundRowReportsBatchEdges) {
  Rng rng(13);
  Graph g = graph::barabasi_albert(32, 2, rng);
  Network net(std::move(g), core::make_strategy("dash"), rng);
  MemorySink sink;
  net.add_observer(std::make_unique<SinkObserver>(sink));

  const auto actions = net.remove_batch({0, 1, 2});
  std::size_t batch_edges = 0;
  for (const auto& a : actions) batch_edges += a.new_graph_edges.size();
  ASSERT_GT(batch_edges, 0u);  // deleting the BA core forces healing

  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0].round, 3u);  // one row covering 3 deletions
  EXPECT_EQ(sink.rows()[0].deletions_in_round, 3u);
  EXPECT_EQ(sink.rows()[0].event_node, 0u);
  EXPECT_EQ(sink.rows()[0].edges_added, batch_edges);
  EXPECT_EQ(sink.rows()[0].alive, 29u);
}

TEST(SinkObserver, JoinsProduceJoinRows) {
  auto net = make_net(16, 14);
  MemorySink sink;
  net.add_observer(std::make_unique<SinkObserver>(sink));
  net.play(Scenario::parse("churn:1,0x2"), 14);

  ASSERT_EQ(sink.rows().size(), 2u);
  for (const auto& row : sink.rows()) {
    EXPECT_TRUE(row.is_join);
    EXPECT_EQ(row.deletions_in_round, 0u);
    EXPECT_GE(row.event_node, 16u);  // joined ids extend the id space
  }
}

TEST(SinkObserver, LogsStretchSamplesFromUpstreamObserver) {
  auto net = make_net(32, 11);
  // Producer before consumer: stretch samples land in the time series.
  auto& stretch = static_cast<StretchObserver&>(
      net.add_observer(std::make_unique<StretchObserver>(2)));
  MemorySink sink;
  net.add_observer(std::make_unique<SinkObserver>(sink, &stretch));
  net.play(Scenario::parse("strike:6"), 11);

  ASSERT_EQ(sink.rows().size(), 6u);
  for (const auto& row : sink.rows()) {
    if (row.round % 2 == 0) {
      EXPECT_TRUE(row.stretch_sampled) << "round " << row.round;
      EXPECT_GE(row.stretch, 1.0);
    } else {
      EXPECT_FALSE(row.stretch_sampled) << "round " << row.round;
    }
  }
}

TEST(CsvStreamSink, StreamsHeaderAndOneLinePerRow) {
  std::ostringstream out;
  auto net = make_net(24, 12);
  CsvStreamSink csv(out);
  net.add_observer(std::make_unique<SinkObserver>(csv));
  net.play(Scenario::parse("strike:4;churn:1,0x1"), 12);
  csv.flush();

  const std::string text = out.str();
  EXPECT_NE(text.find("instance,round,deletions_in_round,event_node,kind"),
            std::string::npos);
  EXPECT_NE(text.find("delete"), std::string::npos);
  EXPECT_NE(text.find("join"), std::string::npos);
  // Header + 4 delete rows + 1 join row.
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n';
  EXPECT_EQ(lines, 6u);
  EXPECT_EQ(csv.rows_written(), 5u);
}

TEST(JsonSummarySink, WritesGroupsRunsAndAggregates) {
  std::ostringstream out;
  JsonSummarySink json(out);
  json.begin_group({{"n", "24"}, {"strategy", "DASH"}});

  auto net = make_net(24, 13);
  net.add_observer(std::make_unique<SinkObserver>(json));
  net.play(Scenario::parse("strike:5"), 13);
  json.flush();

  const std::string text = out.str();
  EXPECT_NE(text.find("\"groups\":["), std::string::npos);
  EXPECT_NE(text.find("\"labels\":{\"n\":\"24\",\"strategy\":\"DASH\"}"),
            std::string::npos);
  EXPECT_NE(text.find("\"deletions\":5"), std::string::npos);
  EXPECT_NE(text.find("\"summary\":{"), std::string::npos);
  EXPECT_NE(text.find("\"max_delta\":{\"mean\":"), std::string::npos);
  EXPECT_NE(text.find("\"stayed_connected\":true"), std::string::npos);
  // Braces and brackets balance (cheap well-formedness check).
  int braces = 0, brackets = 0;
  for (char c : text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // The document is written exactly once.
  json.flush();
  EXPECT_EQ(out.str(), text);
}

TEST(BenchFormat, GroupRunsReadBackWhatTheGroupWrote) {
  Metrics a;
  a.deletions = 5;
  a.joins = 2;
  a.max_delta = 3;
  a.max_id_changes = 7;
  a.max_messages = 1853;
  a.max_messages_sent = 1508;
  a.edges_added = 2313;
  a.surrogate_heals = 1;
  a.max_stretch = 16.75;
  a.components = 1;
  a.largest_component = 3096;
  Metrics b;
  b.stayed_connected = false;
  b.violation = "G' \"cycle\"\n";
  const std::string group = bench_group({{"n", "24"}}, {a, b});
  const std::vector<Metrics> runs = bench_group_runs(group);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(bench_group({{"n", "24"}}, runs), group);
  EXPECT_EQ(runs[0].max_messages, 1853u);
  EXPECT_EQ(runs[0].max_stretch, 16.75);
  EXPECT_FALSE(runs[1].stayed_connected);
  EXPECT_EQ(runs[1].violation, b.violation);

  for (std::size_t cut = 0; cut < group.size(); ++cut) {
    EXPECT_THROW(bench_group_runs(group.substr(0, cut)), util::JsonError);
  }
  std::string fractional = group;
  fractional.replace(fractional.find("\"deletions\":5"), 13,
                     "\"deletions\":5.5");
  EXPECT_THROW(bench_group_runs(fractional), util::JsonError);
}

TEST(BenchFormat, DocumentGroupsInvertTheFraming) {
  const auto document = [](const std::vector<std::string>& groups) {
    std::ostringstream out;
    write_bench_document(out, groups);
    return out.str();
  };
  const std::vector<std::string> groups = {
      bench_group({{"n", "16"}}, {Metrics{}}),
      bench_group({{"n", "32"}}, {Metrics{}, Metrics{}})};
  const std::string doc = document(groups);
  EXPECT_EQ(doc.rfind("{\"groups\":[", 0), 0u);
  EXPECT_EQ(document({}), "{\"groups\":[]}\n");

  // A sink document is the same framing around the same groups.
  std::ostringstream out;
  JsonSummarySink json(out);
  json.begin_group({{"n", "16"}});
  json.on_run(0, Metrics{});
  json.begin_group({{"n", "32"}});
  json.on_run(0, Metrics{});
  json.on_run(1, Metrics{});
  json.flush();
  EXPECT_EQ(out.str(), doc);
}

TEST(RunSuite, SuiteRowsCarryStretchFromConfiguredObserver) {
  // A StretchObserver registered by configure() is a producer the
  // suite's own SinkObserver must find and log samples from.
  MemorySink memory;
  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(24, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("strike:4");
  cfg.instances = 2;
  cfg.configure = [](Network& net) {
    net.add_observer(std::make_unique<StretchObserver>(2));
  };
  cfg.sinks = {&memory};
  cfg.record_rows = true;
  run_suite(cfg);

  ASSERT_EQ(memory.rows().size(), 8u);
  bool any_sampled = false;
  for (const auto& row : memory.rows()) {
    if (row.round % 2 == 0) {
      EXPECT_TRUE(row.stretch_sampled) << "round " << row.round;
      any_sampled |= row.stretch_sampled;
    }
  }
  EXPECT_TRUE(any_sampled);
}

TEST(RunSuite, SinksReceiveRowsGroupedByInstanceInOrder) {
  std::ostringstream out;
  CsvStreamSink csv(out);
  MemorySink memory;

  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(20, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("strike:3");
  cfg.instances = 4;
  cfg.sinks = {&csv, &memory};
  cfg.record_rows = true;

  dash::util::ThreadPool pool(4);
  run_suite(cfg, pool);
  csv.flush();

  // 4 instances x 3 rows, instance ids ascending.
  ASSERT_EQ(memory.rows().size(), 12u);
  for (std::size_t i = 0; i < memory.rows().size(); ++i) {
    EXPECT_EQ(memory.rows()[i].instance, i / 3);
    EXPECT_EQ(memory.rows()[i].round, i % 3 + 1);
  }
  ASSERT_EQ(memory.runs().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(memory.runs()[i].first, i);
    EXPECT_EQ(memory.runs()[i].second.deletions, 3u);
  }
  EXPECT_EQ(csv.rows_written(), 12u);
}

// ---- per-instance row sequence numbers --------------------------------

SuiteConfig churn_suite() {
  SuiteConfig cfg;
  cfg.make_graph = [](Rng& rng) {
    return graph::barabasi_albert(28, 2, rng);
  };
  cfg.make_healer = healer_factory("dash");
  cfg.scenario = Scenario::parse("churn:0.4,0.3x12;strike:3");
  cfg.instances = 6;
  cfg.base_seed = 0xFACE;
  cfg.record_rows = true;
  return cfg;
}

TEST(RunSuite, SeqNumbersArePerInstanceAndContiguous) {
  MemorySink memory;
  auto cfg = churn_suite();
  cfg.sinks = {&memory};
  run_suite(cfg);
  std::vector<std::size_t> next(cfg.instances, 0);
  for (const auto& row : memory.rows()) {
    ASSERT_LT(row.instance, cfg.instances);
    EXPECT_EQ(row.seq, next[row.instance]++) << "instance " << row.instance;
  }
  for (std::size_t i = 0; i < cfg.instances; ++i) {
    EXPECT_GT(next[i], 0u) << "instance " << i << " produced no rows";
  }
}

}  // namespace
}  // namespace dash::api
