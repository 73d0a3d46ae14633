// Tests for the utility substrate: Status/Result, RNG distributions, CSV.

#include <unistd.h>

#include <cstdio>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/logging.h"
#include "util/provenance.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace sthsl {
namespace {

TEST(ProvenanceTest, GitHashDoesNotDependOnWorkingDirectory) {
  // The hash is stamped at configure time, so a binary run from outside the
  // source tree reports the same commit as one run inside it.
  const std::string here = SourceGitHash();
  EXPECT_FALSE(here.empty());
  char cwd[4096];
  ASSERT_NE(getcwd(cwd, sizeof cwd), nullptr);
  ASSERT_EQ(chdir("/"), 0);
  const std::string elsewhere = SourceGitHash();
  ASSERT_EQ(chdir(cwd), 0);
  EXPECT_EQ(elsewhere, here);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
  EXPECT_EQ(Status::IoError("x").code(), Status::Code::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            Status::Code::kFailedPrecondition);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(124);
  EXPECT_NE(Rng(123).NextU64(), c.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
  // n=1 always returns 0.
  EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLargeRates) {
  Rng rng(4);
  for (double rate : {0.3, 3.0, 80.0}) {
    double total = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) total += rng.Poisson(rate);
    EXPECT_NEAR(total / n, rate, rate * 0.1 + 0.05) << "rate " << rate;
  }
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ParetoHeavyTail) {
  Rng rng(5);
  int above10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Pareto(1.0, 1.2);
    EXPECT_GE(x, 1.0);
    if (x > 10.0) ++above10;
  }
  // P(X > 10) = 10^-1.2 ~ 0.063 for alpha=1.2.
  EXPECT_NEAR(static_cast<double>(above10) / n, 0.063, 0.02);
}

TEST(RngTest, GammaMean) {
  Rng rng(6);
  for (double shape : {0.5, 2.0, 9.0}) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += rng.Gamma(shape, 2.0);
    EXPECT_NEAR(total / n, shape * 2.0, shape * 2.0 * 0.06)
        << "shape " << shape;
  }
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  auto perm = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(8);
  Rng child = parent.Fork();
  // Streams should differ from each other and from the parent's continuation.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(LoggingTest, Iso8601TimestampFormat) {
  const std::string ts = internal_logging::FormatTimestampIso8601();
  // "YYYY-MM-DDTHH:MM:SS.mmmZ" — 24 characters with fixed separators.
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts[23], 'Z');
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u, 17u,
                   18u, 20u, 21u, 22u}) {
    EXPECT_TRUE(ts[i] >= '0' && ts[i] <= '9') << "position " << i;
  }
}

TEST(LoggingTest, LogLevelRoundTrip) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(saved);
}

TEST(TimerTest, ElapsedUnitsAgree) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  const double seconds = timer.ElapsedSeconds();
  const double micros = timer.ElapsedMicros();
  EXPECT_GT(micros, 0.0);
  // Micros read slightly later than seconds; both measure the same clock.
  EXPECT_GE(micros, seconds * 1e6);
  EXPECT_LT(micros, (seconds + 0.1) * 1e6);
}

TEST(CsvTest, SplitPlainLine) {
  auto cells = SplitCsvLine("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(CsvTest, SplitQuotedCells) {
  auto cells = SplitCsvLine("\"x,y\",plain,\"he said \"\"hi\"\"\"");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "x,y");
  EXPECT_EQ(cells[1], "plain");
  EXPECT_EQ(cells[2], "he said \"hi\"");
}

TEST(CsvTest, EmptyCells) {
  auto cells = SplitCsvLine(",,");
  ASSERT_EQ(cells.size(), 3u);
  for (const auto& c : cells) EXPECT_TRUE(c.empty());
}

TEST(CsvTest, WriteReadRoundTrip) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"plain", "1"}, {"with,comma", "2"}, {"with\"quote", "3"}};
  const std::string path = "/tmp/sthsl_util_csv_test.csv";
  ASSERT_TRUE(WriteCsv(path, table).ok());
  auto loaded_or = ReadCsv(path);
  ASSERT_TRUE(loaded_or.ok());
  const CsvTable& loaded = loaded_or.value();
  EXPECT_EQ(loaded.header, table.header);
  ASSERT_EQ(loaded.rows.size(), table.rows.size());
  EXPECT_EQ(loaded.rows[1][0], "with,comma");
  EXPECT_EQ(loaded.rows[2][0], "with\"quote");
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIoError) {
  auto result = ReadCsv("/tmp/definitely_missing_sthsl.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIoError);
}

}  // namespace
}  // namespace sthsl
