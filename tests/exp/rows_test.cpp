// Per-shard rows I/O tests: the rows-file grammar, crash-tolerant
// loading, canonical merging (sorting, duplicate collapse, conflict
// rejection), the runner's on_rows hook staying bit-for-bit in sync
// with the in-process CsvStreamSink column formatter, and both row
// emitters pinned to the util::CsvWriter::to_field bytes.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/sink.h"
#include "exp/spec.h"
#include "util/csv.h"

namespace dash::exp {
namespace {

api::RoundRow sample_row() {
  api::RoundRow row;
  row.instance = 2;
  row.seq = 5;
  row.round = 7;
  row.deletions_in_round = 1;
  row.event_node = 13;
  row.alive = 30;
  row.edges = 61;
  row.edges_added = 4;
  row.max_delta = 3;
  row.largest_component = 30;
  row.stretch = 1.5;
  row.stretch_sampled = true;
  return row;
}

/// A temp file named after the running test (and numbered within it),
/// so cases run as concurrent processes never share a path.
std::string write_temp(const std::string& content) {
  static int counter = 0;
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "dash_rows_test_" +
                           test->test_suite_name() + "_" + test->name() +
                           "_" + std::to_string(counter++) + ".csv";
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return path;
}

TEST(Rows, LineRoundTripsThroughParse) {
  const api::RoundRow row = sample_row();
  const std::string line = rows_line(9, row);
  RowsRecord record;
  ASSERT_TRUE(parse_rows_line(line, &record));
  EXPECT_EQ(record.cell, 9u);
  EXPECT_EQ(record.seq, 5u);
  EXPECT_EQ(record.instance, 2u);
  EXPECT_EQ(record.line, line);
  EXPECT_EQ(rows_header().rfind("cell,seq,instance,", 0), 0u);
}

TEST(Rows, LineEmbedsCsvStreamSinkBytes) {
  // The fields after the (cell, seq) prefix must be exactly what
  // CsvStreamSink writes for the same row -- the byte-identity bridge
  // between sharded rows files and in-process CSV streams.
  const api::RoundRow row = sample_row();
  std::ostringstream os;
  api::CsvStreamSink sink(os);
  sink.on_row(row);
  sink.flush();
  const std::string csv = os.str();
  const std::size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string csv_row =
      csv.substr(header_end + 1, csv.size() - header_end - 2);
  EXPECT_EQ(rows_line(3, row), "3,5," + csv_row);
  const std::string csv_header = csv.substr(0, header_end);
  EXPECT_EQ(rows_header(), "cell,seq," + csv_header);
}

/// A row's fields as the formatter before api::append_round_row built
/// them: one util::CsvWriter::to_field string per column.
std::vector<std::string> to_field_fields(const api::RoundRow& row) {
  using util::CsvWriter;
  return {CsvWriter::to_field(row.instance),
          CsvWriter::to_field(row.round),
          CsvWriter::to_field(row.deletions_in_round),
          CsvWriter::to_field(static_cast<std::size_t>(row.event_node)),
          row.is_join ? "join" : "delete",
          CsvWriter::to_field(row.alive),
          CsvWriter::to_field(row.edges),
          CsvWriter::to_field(row.edges_added),
          CsvWriter::to_field(static_cast<std::size_t>(row.max_delta)),
          CsvWriter::to_field(row.largest_component),
          CsvWriter::to_field(row.stretch),
          CsvWriter::to_field(row.stretch_sampled ? 1 : 0)};
}

TEST(Rows, RowBytesMatchTheToFieldComposition) {
  api::RoundRow widest;
  widest.instance = widest.seq = widest.round = SIZE_MAX;
  widest.deletions_in_round = widest.alive = widest.edges = SIZE_MAX;
  widest.edges_added = widest.largest_component = SIZE_MAX;
  widest.event_node = UINT32_MAX;
  widest.max_delta = UINT32_MAX;
  api::RoundRow join = sample_row();
  join.is_join = true;
  join.deletions_in_round = 0;
  join.edges_added = 0;
  api::RoundRow zeros;
  std::vector<api::RoundRow> rows;
  for (const api::RoundRow& base : {sample_row(), widest, join, zeros}) {
    for (const double stretch : {0.0, 1.5, 1e-7, 4.0 / 3.0,
                                 std::numeric_limits<double>::infinity()}) {
      for (const bool sampled : {false, true}) {
        api::RoundRow row = base;
        row.stretch = stretch;
        row.stretch_sampled = sampled;
        rows.push_back(row);
      }
    }
  }

  // The bytes CsvStreamSink wrote through util::CsvWriter before.
  std::ostringstream want;
  util::CsvWriter writer(want, api::round_row_header());
  std::ostringstream got;
  api::CsvStreamSink sink(got);
  for (const api::RoundRow& row : rows) {
    const std::vector<std::string> fields = to_field_fields(row);
    writer.write_row(fields);
    sink.on_row(row);
    std::string line = std::to_string(4) + ',' + std::to_string(row.seq);
    for (const std::string& f : fields) line += ',' + f;
    EXPECT_EQ(rows_line(4, row), line);
  }
  sink.flush();
  EXPECT_EQ(got.str(), want.str());
  EXPECT_EQ(sink.rows_written(), rows.size());

  // Known answers for the extremes.
  api::RoundRow row = widest;
  row.stretch = std::numeric_limits<double>::infinity();
  row.stretch_sampled = true;
  const std::string max = "18446744073709551615";
  EXPECT_EQ(rows_line(0, row),
            "0," + max + ',' + max + ',' + max + ',' + max +
                ",4294967295,delete," + max + ',' + max + ',' + max +
                ",4294967295," + max + ",inf,1");
  row = join;
  row.stretch = 1e-7;
  EXPECT_EQ(rows_line(1, row), "1,5,2,7,0,13,join,30,61,0,3,30,1e-07,1");
}

TEST(Rows, ParseRejectsTruncatedLines) {
  const std::string line = rows_line(1, sample_row());
  RowsRecord record;
  for (std::size_t cut = 1; cut + 1 < line.size(); cut += 7) {
    EXPECT_FALSE(parse_rows_line(line.substr(0, cut), &record))
        << "accepted truncation at " << cut;
  }
  EXPECT_FALSE(parse_rows_line("", &record));
  EXPECT_FALSE(parse_rows_line("a,b,c", &record));
}

TEST(Rows, ParseRejectsKeysAboveSizeMax) {
  // 2^64 + 1 once parsed as 1, in each of the three key columns.
  const std::string line = rows_line(1, sample_row());
  const std::string key = "1,5,2,";
  ASSERT_EQ(line.compare(0, key.size(), key), 0);
  const std::string fields = line.substr(key.size());
  RowsRecord record;
  for (const char* wide :
       {"18446744073709551617,5,2,", "1,18446744073709551617,2,",
        "1,5,18446744073709551617,"}) {
    EXPECT_FALSE(parse_rows_line(wide + fields, &record)) << wide;
  }
  ASSERT_TRUE(
      parse_rows_line("18446744073709551615,5,2," + fields, &record));
  EXPECT_EQ(record.cell, 18446744073709551615ULL);
}

TEST(Rows, MergedRowsSortsAndCollapsesDuplicates) {
  api::RoundRow a = sample_row();
  a.instance = 0;
  a.seq = 0;
  api::RoundRow b = sample_row();
  b.instance = 0;
  b.seq = 1;
  api::RoundRow c = sample_row();
  c.instance = 1;
  c.seq = 0;

  std::vector<RowsRecord> records;
  auto push = [&](std::size_t cell, const api::RoundRow& row) {
    RowsRecord rec;
    rec.cell = cell;
    rec.instance = row.instance;
    rec.seq = row.seq;
    rec.line = rows_line(cell, row);
    records.push_back(rec);
  };
  // Out of order, with one identical duplicate (a crash-resumed worker
  // re-emitting rows it already persisted).
  push(1, c);
  push(0, b);
  push(1, c);
  push(0, a);

  const std::string doc = merged_rows(records);
  std::string want = rows_header() + "\n" + rows_line(0, a) + "\n" +
                     rows_line(0, b) + "\n" + rows_line(1, c) + "\n";
  EXPECT_EQ(doc, want);
}

TEST(Rows, MergedRowsRejectsConflicts) {
  api::RoundRow a = sample_row();
  api::RoundRow b = sample_row();
  b.alive -= 1;  // same key, different content
  RowsRecord ra{3, a.instance, a.seq, rows_line(3, a)};
  RowsRecord rb{3, b.instance, b.seq, rows_line(3, b)};
  EXPECT_THROW(merged_rows({ra, rb}), std::invalid_argument);
}

TEST(Rows, LoadToleratesTruncatedFinalLine) {
  const api::RoundRow row = sample_row();
  const std::string good = rows_line(0, row);
  const std::string path = write_temp(rows_header() + "\n" + good + "\n" +
                                      good.substr(0, good.size() / 2));
  const auto records = load_rows_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].line, good);
  std::remove(path.c_str());
}

TEST(Rows, LoadRejectsInteriorCorruptionAndBadHeader) {
  const std::string good = rows_line(0, sample_row());
  const std::string bad_interior = write_temp(
      rows_header() + "\nnot,a,row\n" + good + "\n");
  EXPECT_THROW(load_rows_file(bad_interior), std::invalid_argument);
  std::remove(bad_interior.c_str());

  const std::string bad_header = write_temp("wrong,header\n" + good + "\n");
  EXPECT_THROW(load_rows_file(bad_header), std::invalid_argument);
  std::remove(bad_header.c_str());

  EXPECT_THROW(load_rows_file(::testing::TempDir() + "does_not_exist.csv"),
               std::invalid_argument);
}

TEST(Rows, RunnerStreamsRowsPerCell) {
  const ExperimentSpec spec = ExperimentSpec::parse_line(
      "name=rows n=16 healer=dash scenario=until-quarter instances=2 "
      "seed=3");
  RunnerOptions opt;
  opt.threads = 1;
  std::vector<std::string> lines;
  std::size_t cells = 0;
  opt.on_rows = [&](const Cell& cell,
                    const std::vector<api::RoundRow>& rows) {
    ++cells;
    ASSERT_FALSE(rows.empty());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) {
        // Buffered suite order: instance-major, seq ascending.
        const bool ordered =
            rows[i - 1].instance < rows[i].instance ||
            (rows[i - 1].instance == rows[i].instance &&
             rows[i - 1].seq < rows[i].seq);
        EXPECT_TRUE(ordered) << "row " << i << " out of order";
      }
      lines.push_back(rows_line(cell.index, rows[i]));
    }
  };
  const auto results = run(spec, opt);
  EXPECT_EQ(cells, 1u);
  ASSERT_EQ(results.size(), 1u);

  // on_rows must not perturb the run: metrics match a row-less run.
  RunnerOptions bare;
  bare.threads = 1;
  const auto baseline = run(spec, bare);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_EQ(results[0].group_json, baseline[0].group_json);

  // And the collected lines round-trip through the merge formatter.
  std::vector<RowsRecord> records;
  for (const std::string& line : lines) {
    RowsRecord rec;
    ASSERT_TRUE(parse_rows_line(line, &rec));
    records.push_back(rec);
  }
  const std::string doc = merged_rows(records);
  EXPECT_EQ(doc, rows_header() + "\n" +
                     [&] {
                       std::string body;
                       for (const auto& line : lines) {
                         body += line;
                         body += '\n';
                       }
                       return body;
                     }());
}

}  // namespace
}  // namespace dash::exp
