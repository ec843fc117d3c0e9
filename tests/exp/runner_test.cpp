// Tests for the sharded runner and merge semantics: any partition of a
// grid's cells, run in any order, must reassemble into the byte-exact
// BENCH_*.json document a single-process sequential run produces -- and
// merge must reject records that could not have come from this spec.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/api.h"
#include "exp/spec.h"

namespace dash::exp {
namespace {

ExperimentSpec tiny_spec() {
  return ExperimentSpec::parse_line(
      "name=tiny n=16|24 healer=dash|graph "
      "scenario=paper-churn|until-quarter instances=2 seed=21");
}

/// All records of one shard, via the streaming hook.
std::vector<ShardRecord> run_shard(const ExperimentSpec& spec,
                                   std::size_t index, std::size_t count,
                                   std::size_t threads = 1) {
  RunnerOptions opt;
  opt.shard = {index, count};
  opt.threads = threads;
  std::vector<ShardRecord> records;
  opt.on_cell = [&](const CellResult& result) {
    records.push_back(to_record(spec, result));
  };
  run(spec, opt);
  return records;
}

/// The ground truth a sequential whole-document run produces: every
/// cell fed through one JsonSummarySink, exactly as the pre-exp figure
/// benches wrote their --json files.
std::string sequential_document(const ExperimentSpec& spec) {
  std::ostringstream os;
  api::JsonSummarySink sink(os);
  for (const Cell& cell : spec.enumerate()) {
    api::SuiteConfig cfg;
    cfg.make_graph = make_family(cell.family, cell.n, spec.ba_edges);
    cfg.make_healer = api::healer_factory(cell.healer);
    cfg.scenario = api::Scenario::parse(cell.scenario);
    cfg.instances = cell.instances;
    cfg.base_seed = cell.seed;
    sink.begin_group(cell.labels(spec.label_family()));
    cfg.sinks.push_back(&sink);
    api::run_suite(cfg);
  }
  sink.flush();
  return os.str();
}

TEST(Runner, ShardZeroOfOneRunsEveryCell) {
  const auto spec = tiny_spec();
  const auto records = run_shard(spec, 0, 1);
  EXPECT_EQ(records.size(), spec.enumerate().size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].cell, i);
    EXPECT_EQ(records[i].spec_hash, spec.hash());
  }
}

TEST(Runner, ShardsPartitionTheCellList) {
  const auto spec = tiny_spec();
  const auto s0 = run_shard(spec, 0, 3);
  const auto s1 = run_shard(spec, 1, 3);
  const auto s2 = run_shard(spec, 2, 3);
  std::set<std::size_t> seen;
  for (const auto* shard : {&s0, &s1, &s2}) {
    for (const auto& record : *shard) {
      EXPECT_TRUE(seen.insert(record.cell).second)
          << "cell " << record.cell << " ran in two shards";
    }
  }
  EXPECT_EQ(seen.size(), spec.enumerate().size());
}

TEST(Runner, MergedShardsAreByteIdenticalToSequentialDocument) {
  const auto spec = tiny_spec();
  const std::string expected = sequential_document(spec);

  // 1 shard, 2 shards, 3 shards -- all reassemble to the same bytes,
  // regardless of record order and of suite-pool parallelism.
  for (const std::size_t count : {1u, 2u, 3u}) {
    std::vector<ShardRecord> records;
    for (std::size_t index = count; index-- > 0;) {  // reversed order
      const auto shard =
          run_shard(spec, index, count, index % 2 == 0 ? 1 : 4);
      records.insert(records.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(merged_document(spec, records), expected)
        << count << " shards";
  }
}

TEST(Runner, MergedDocumentCarriesConnectivityAggregates) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn instances=2 seed=4");
  const auto doc = merged_document(spec, run_shard(spec, 0, 1));
  // Metrics::components / largest_component must survive the shard
  // round trip into the runs and summary sections.
  EXPECT_NE(doc.find("\"components\""), std::string::npos);
  EXPECT_NE(doc.find("\"largest_component\""), std::string::npos);
  EXPECT_NE(doc.find("\"summary\""), std::string::npos);
}

TEST(Runner, SkipSetSuppressesCells) {
  const auto spec = tiny_spec();
  RunnerOptions opt;
  opt.threads = 1;
  const std::set<std::size_t> skip{0, 3, 5};
  opt.skip = &skip;
  const auto results = run(spec, opt);
  EXPECT_EQ(results.size(), spec.enumerate().size() - skip.size());
  for (const auto& result : results) {
    EXPECT_EQ(skip.count(result.cell.index), 0u);
  }
}

TEST(Runner, SkippedCellsMergeWithPriorRecords) {
  const auto spec = tiny_spec();
  const auto all = run_shard(spec, 0, 1);

  // Resume contract: cells 'already on disk' are skipped, the fresh
  // records for the rest plus the prior records merge byte-identically.
  RunnerOptions opt;
  opt.threads = 1;
  std::set<std::size_t> skip{1, 2, 6};
  opt.skip = &skip;
  std::vector<ShardRecord> records;
  opt.on_cell = [&](const CellResult& result) {
    records.push_back(to_record(spec, result));
  };
  run(spec, opt);
  for (const std::size_t i : skip) records.push_back(all[i]);
  EXPECT_EQ(merged_document(spec, records), merged_document(spec, all));
}

TEST(Runner, PooledCellsCommitInEnumerationOrder) {
  // One instance per cell leaves the pool to the cells themselves, and
  // the large cells come first, so cells finish out of order. The
  // callbacks must still arrive as the sequential loop makes them --
  // rows then record, cell by cell -- with the same bytes.
  const auto spec = ExperimentSpec::parse_line(
      "name=pooled n=96|16 healer=dash|graph|line "
      "scenario=paper-churn|until-quarter instances=1 seed=21");
  struct Observed {
    std::vector<std::string> events;
    std::vector<std::string> records;
    std::vector<std::string> rows;
    std::vector<std::string> groups;
  };
  const auto observe = [&](std::size_t threads) {
    Observed seen;
    RunnerOptions opt;
    opt.threads = threads;
    opt.on_rows = [&](const Cell& cell,
                      const std::vector<api::RoundRow>& rows) {
      seen.events.push_back("rows " + std::to_string(cell.index));
      for (const api::RoundRow& row : rows) {
        seen.rows.push_back(rows_line(cell.index, row));
      }
    };
    opt.on_cell = [&](const CellResult& result) {
      seen.events.push_back("cell " + std::to_string(result.cell.index));
      seen.records.push_back(shard_line(to_record(spec, result)));
    };
    for (const CellResult& result : run(spec, opt)) {
      seen.groups.push_back(result.group_json);
    }
    return seen;
  };

  std::vector<std::string> expected;
  for (const Cell& cell : spec.enumerate()) {
    expected.push_back("rows " + std::to_string(cell.index));
    expected.push_back("cell " + std::to_string(cell.index));
  }
  const Observed seq = observe(1);
  const Observed pooled = observe(4);
  EXPECT_EQ(seq.events, expected);
  EXPECT_EQ(pooled.events, expected);
  EXPECT_EQ(pooled.records, seq.records);
  EXPECT_EQ(pooled.rows, seq.rows);
  EXPECT_EQ(pooled.groups, seq.groups);
  EXPECT_FALSE(seq.rows.empty());
}

TEST(Runner, RejectsBadShardOptions) {
  const auto spec = tiny_spec();
  RunnerOptions opt;
  opt.shard = {0, 0};
  EXPECT_THROW(run(spec, opt), std::invalid_argument);
  opt.shard = {2, 2};
  EXPECT_THROW(run(spec, opt), std::invalid_argument);
}

TEST(Runner, RunCellReproducesEveryRunnerCellIncludingRows) {
  // run_cell is run()'s unit of work: one cell, computed in isolation,
  // must yield the exact group bytes and row series the same cell gets
  // inside a full run().
  const auto spec = tiny_spec();
  RunnerOptions opt;
  opt.threads = 1;
  std::map<std::size_t, std::vector<std::string>> run_rows;
  opt.on_rows = [&](const Cell& cell,
                    const std::vector<api::RoundRow>& rows) {
    for (const api::RoundRow& row : rows) {
      run_rows[cell.index].push_back(rows_line(cell.index, row));
    }
  };
  const auto results = run(spec, opt);
  ASSERT_EQ(results.size(), spec.enumerate().size());

  for (const CellResult& expected : results) {
    std::vector<std::string> cell_rows;
    const CellResult single = run_cell(
        spec, expected.cell, nullptr,
        [&](const Cell& cell, const std::vector<api::RoundRow>& rows) {
          for (const api::RoundRow& row : rows) {
            cell_rows.push_back(rows_line(cell.index, row));
          }
        });
    EXPECT_EQ(single.cell.index, expected.cell.index);
    EXPECT_EQ(single.group_json, expected.group_json);
    EXPECT_EQ(single.runs.size(), expected.runs.size());
    EXPECT_EQ(cell_rows, run_rows[expected.cell.index]);
  }
}

// ---- record serialization --------------------------------------------------

TEST(ShardRecords, LineRoundTrips) {
  const ShardRecord record{
      7, "0123456789abcdef",
      "{\"labels\":{\"n\":\"16\"},\"instances\":1,\"runs\":[{}]}"};
  ShardRecord parsed;
  ASSERT_TRUE(parse_shard_line(shard_line(record), &parsed));
  EXPECT_EQ(parsed.cell, record.cell);
  EXPECT_EQ(parsed.spec_hash, record.spec_hash);
  EXPECT_EQ(parsed.group_json, record.group_json);
}

TEST(ShardRecords, ParseRejectsMalformedLines) {
  ShardRecord out;
  EXPECT_FALSE(parse_shard_line("", &out));
  EXPECT_FALSE(parse_shard_line("{\"cell\":7", &out));
  EXPECT_FALSE(parse_shard_line("{\"cell\":x,\"spec_hash\":\"a\"}", &out));
  EXPECT_FALSE(parse_shard_line(
      "{\"cell\":7,\"spec_hash\":\"abc\",\"group\":{\"trunc", &out));
  // Truncated mid-group: no closing brace pair.
  const ShardRecord record{1, "ff00ff00ff00ff00", "{\"a\":1}"};
  std::string line = shard_line(record);
  EXPECT_TRUE(parse_shard_line(line, &out));
  EXPECT_FALSE(parse_shard_line(line.substr(0, line.size() - 3), &out));
}

TEST(ShardRecords, ParseRejectsEveryStrictPrefixOfARealLine) {
  // A line that lost only its last byte or two once parsed, leaving the
  // group with unclosed braces.
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn instances=2 seed=4");
  const std::string line = shard_line(run_shard(spec, 0, 1).front());
  ShardRecord out;
  ASSERT_TRUE(parse_shard_line(line, &out));
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    EXPECT_FALSE(parse_shard_line(line.substr(0, cut), &out))
        << "accepted a prefix of " << cut << " of " << line.size()
        << " bytes";
  }
}

TEST(ShardRecords, LoadShardFileDropsALastLineThatLostOneByte) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash|graph scenario=paper-churn instances=2 seed=4");
  const auto records = run_shard(spec, 0, 1);
  ASSERT_EQ(records.size(), 2u);
  const std::string path = ::testing::TempDir() + "/shard_lost_byte.jsonl";
  {
    std::ofstream out(path);
    const std::string last = shard_line(records[1]);
    out << shard_line(records[0]) << "\n" << last.substr(0, last.size() - 1);
  }
  const auto loaded = load_shard_file(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cell, records[0].cell);
  std::remove(path.c_str());
}

TEST(ShardRecords, ParseRejectsCellAboveSizeMax) {
  // 2^64 + 1 once parsed as cell 1.
  ShardRecord out;
  EXPECT_FALSE(parse_shard_line(
      "{\"cell\":18446744073709551617,\"spec_hash\":\"00000000000000aa\","
      "\"group\":{\"a\":1}}",
      &out));
  ASSERT_TRUE(parse_shard_line(
      "{\"cell\":18446744073709551615,\"spec_hash\":\"00000000000000aa\","
      "\"group\":{\"a\":1}}",
      &out));
  EXPECT_EQ(out.cell, 18446744073709551615ULL);
}

TEST(ShardRecords, LoadShardFileDropsOnlyTruncatedFinalLine) {
  const ShardRecord a{0, "00000000000000aa", "{\"a\":1}"};
  const ShardRecord b{1, "00000000000000aa", "{\"b\":2}"};
  const std::string path = ::testing::TempDir() + "/shard_tail.jsonl";

  {
    std::ofstream out(path);
    out << shard_line(a) << "\n" << shard_line(b).substr(0, 10);
  }
  const auto records = load_shard_file(path);
  ASSERT_EQ(records.size(), 1u);  // interrupted tail dropped
  EXPECT_EQ(records[0].cell, 0u);

  {
    std::ofstream out(path);
    out << shard_line(a).substr(0, 10) << "\n" << shard_line(b) << "\n";
  }
  EXPECT_THROW(load_shard_file(path), std::invalid_argument);

  EXPECT_THROW(load_shard_file(path + ".does-not-exist"),
               std::invalid_argument);
  std::remove(path.c_str());
}

// ---- merge rejection semantics ---------------------------------------------

TEST(Merge, RejectsMismatchedSpecHash) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn instances=2 seed=4");
  auto records = run_shard(spec, 0, 1);
  records[0].spec_hash = "00000000deadbeef";
  try {
    merged_document(spec, records);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("00000000deadbeef"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(spec.hash()), std::string::npos);
  }

  // The same records against a *different* spec fail the same way.
  const auto other = ExperimentSpec::parse_line(
      "n=16 healer=dash scenario=paper-churn instances=2 seed=5");
  EXPECT_THROW(merged_document(other, run_shard(spec, 0, 1)),
               std::invalid_argument);
}

TEST(Merge, RejectsMissingAndOutOfRangeAndConflictingCells) {
  const auto spec = ExperimentSpec::parse_line(
      "n=16 healer=dash|graph scenario=paper-churn instances=2 seed=4");
  auto records = run_shard(spec, 0, 1);
  ASSERT_EQ(records.size(), 2u);

  // Missing cell: the error names it.
  try {
    merged_document(spec, {records[0]});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1 of 2 cells missing"),
              std::string::npos);
  }

  // Out-of-range index.
  auto oor = records;
  oor[1].cell = 99;
  EXPECT_THROW(merged_document(spec, oor), std::invalid_argument);

  // Two records for one cell with different payloads.
  auto conflict = records;
  conflict.push_back(records[1]);
  conflict.back().group_json = "{\"tampered\":true}";
  EXPECT_THROW(merged_document(spec, conflict), std::invalid_argument);

  // Duplicate *identical* records are fine (shard overlap on resume).
  auto dup = records;
  dup.push_back(records[1]);
  EXPECT_EQ(merged_document(spec, dup), merged_document(spec, records));
}

}  // namespace
}  // namespace dash::exp
