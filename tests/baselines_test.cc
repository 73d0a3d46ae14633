// Tests for the baseline forecasters: classical models, graph utilities,
// and a smoke sweep fitting every registered model on a tiny city.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/classical.h"
#include "baselines/graph_utils.h"
#include "baselines/registry.h"
#include "core/forecaster.h"
#include "data/generator.h"

namespace sthsl {
namespace {

CrimeDataset TinyCity(int64_t days = 90, uint64_t seed = 17) {
  CrimeGenConfig gen;
  gen.rows = 4;
  gen.cols = 4;
  gen.days = days;
  gen.num_zones = 3;
  gen.category_totals = {450, 1000, 460, 560};
  gen.seed = seed;
  return GenerateCrimeData(gen);
}

TEST(HistoricalAverageTest, LearnsPerBucketMeans) {
  // Constant series: HA must reproduce the constant exactly.
  std::vector<float> counts(2 * 14 * 1, 0.0f);
  for (int64_t t = 0; t < 14; ++t) counts[static_cast<size_t>(t)] = 3.0f;
  CrimeDataset data("c", 2, 1, {"A"},
                    Tensor::FromVector({2, 14, 1}, counts));
  HistoricalAverage ha;
  ha.Fit(data, 14);
  Tensor pred = ha.PredictDay(data, 13);
  EXPECT_FLOAT_EQ(pred.At({0, 0}), 3.0f);
  EXPECT_FLOAT_EQ(pred.At({1, 0}), 0.0f);
}

TEST(HistoricalAverageTest, DayOfWeekConditioning) {
  // Crime only on day-of-week 0.
  std::vector<float> counts(1 * 28 * 1, 0.0f);
  for (int64_t t = 0; t < 28; t += 7) counts[static_cast<size_t>(t)] = 7.0f;
  CrimeDataset data("c", 1, 1, {"A"},
                    Tensor::FromVector({1, 28, 1}, counts));
  HistoricalAverage ha(/*day_of_week=*/true);
  ha.Fit(data, 28);
  EXPECT_FLOAT_EQ(ha.PredictDay(data, 28).At({0, 0}), 7.0f);  // 28 % 7 == 0
  EXPECT_FLOAT_EQ(ha.PredictDay(data, 29).At({0, 0}), 0.0f);
}

TEST(ArimaTest, TracksLinearTrend) {
  // x_t = t: first difference is constant 1, so the forecast of day T is
  // close to T (ARIMA with d=1 nails deterministic trends).
  const int64_t days = 60;
  std::vector<float> counts(static_cast<size_t>(days));
  for (int64_t t = 0; t < days; ++t) {
    counts[static_cast<size_t>(t)] = static_cast<float>(t);
  }
  CrimeDataset data("c", 1, 1, {"A"},
                    Tensor::FromVector({1, days, 1}, counts));
  Arima arima;
  arima.Fit(data, 50);
  Tensor pred = arima.PredictDay(data, 55);
  EXPECT_NEAR(pred.At({0, 0}), 55.0f, 2.0f);
}

TEST(ArimaTest, ConstantSeriesPredictsConstant) {
  std::vector<float> counts(40, 2.0f);
  CrimeDataset data("c", 1, 1, {"A"},
                    Tensor::FromVector({1, 40, 1}, counts));
  Arima arima;
  arima.Fit(data, 35);
  EXPECT_NEAR(arima.PredictDay(data, 38).At({0, 0}), 2.0f, 0.2f);
}

TEST(ArimaTest, ShortSeriesFallsBackGracefully) {
  std::vector<float> counts(8, 1.0f);
  CrimeDataset data("c", 1, 1, {"A"},
                    Tensor::FromVector({1, 8, 1}, counts));
  Arima arima;
  arima.Fit(data, 8);
  Tensor pred = arima.PredictDay(data, 8);
  EXPECT_TRUE(std::isfinite(pred.At({0, 0})));
  EXPECT_GE(pred.At({0, 0}), 0.0f);
}

TEST(SvrTest, LearnsPersistentSignal) {
  // Strongly autocorrelated series: prediction should correlate with the
  // recent past much better than a zero predictor.
  CrimeDataset data = TinyCity(120);
  Svr svr;
  svr.Fit(data, 100);
  CrimeMetrics metrics = EvaluateForecaster(svr, data, 100, 120);
  CrimeMetrics zero(data.num_regions(), data.num_categories());
  for (int64_t t = 100; t < 120; ++t) {
    zero.AddDay(Tensor::Zeros({16, 4}), data.TargetDay(t));
  }
  EXPECT_LT(metrics.Overall().mae, zero.Overall().mae);
}

// -- Graph utilities -------------------------------------------------------------

TEST(GraphUtilsTest, GridAdjacencyRowStochastic) {
  Tensor adj = GridAdjacency(3, 4);
  EXPECT_EQ(adj.Shape(), (std::vector<int64_t>{12, 12}));
  for (int64_t r = 0; r < 12; ++r) {
    float row_sum = 0.0f;
    for (int64_t c = 0; c < 12; ++c) row_sum += adj.At({r, c});
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
    EXPECT_GT(adj.At({r, r}), 0.0f);  // self loop
  }
  // Corner region (0,0) connects to self + right + down = 3 entries.
  int nonzero = 0;
  for (int64_t c = 0; c < 12; ++c) nonzero += (adj.At({0, c}) > 0.0f);
  EXPECT_EQ(nonzero, 3);
}

TEST(GraphUtilsTest, SimilarityAdjacencyHasKNeighbors) {
  CrimeDataset data = TinyCity(60);
  Tensor adj = SimilarityAdjacency(data, 50, 4);
  for (int64_t r = 0; r < data.num_regions(); ++r) {
    int nonzero = 0;
    float row_sum = 0.0f;
    for (int64_t c = 0; c < data.num_regions(); ++c) {
      nonzero += (adj.At({r, c}) > 0.0f);
      row_sum += adj.At({r, c});
    }
    EXPECT_EQ(nonzero, 5);  // self + k
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST(GraphUtilsTest, StaticHypergraphShapeAndNormalization) {
  CrimeDataset data = TinyCity(60);
  Tensor incidence = StaticHypergraph(data, 50, 6, 5);
  EXPECT_EQ(incidence.Shape(), (std::vector<int64_t>{6, 16}));
  for (int64_t e = 0; e < 6; ++e) {
    float row_sum = 0.0f;
    int nonzero = 0;
    for (int64_t r = 0; r < 16; ++r) {
      row_sum += incidence.At({e, r});
      nonzero += (incidence.At({e, r}) > 0.0f);
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
    EXPECT_EQ(nonzero, 5);
  }
}

// -- Registry smoke sweep ----------------------------------------------------------

TEST(RegistryTest, NamesAreUniqueAndResolvable) {
  auto names = AllModelNames();
  EXPECT_EQ(names.size(), 17u);  // 16 Table III rows + HA
  ComparisonConfig config = MakeComparisonConfig(14, 1, 2, 5);
  for (const auto& name : names) {
    auto model = MakeForecaster(name, config.baseline, config.sthsl);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->Name(), name);
  }
}

TEST(RegistryTest, EfficiencySubsetIsSubset) {
  auto all = AllModelNames();
  for (const auto& name : EfficiencyStudyModelNames()) {
    bool found = false;
    for (const auto& n : all) found |= (n == name);
    EXPECT_TRUE(found) << name;
  }
}

// Every model fits and produces finite, non-negative predictions on a tiny
// synthetic city. This is the integration test of the whole model zoo.
TEST(RegistryTest, AllModelsFitAndPredict) {
  CrimeDataset data = TinyCity(70);
  ComparisonConfig config = MakeComparisonConfig(/*window=*/14, /*epochs=*/2,
                                                 /*steps_per_epoch=*/3,
                                                 /*seed=*/9);
  config.baseline.hidden = 8;
  config.sthsl.dim = 4;
  config.sthsl.num_hyperedges = 8;
  for (const auto& name : AllModelNames()) {
    SCOPED_TRACE(name);
    auto model = MakeForecaster(name, config.baseline, config.sthsl);
    model->Fit(data, 56);
    Tensor pred = model->PredictDay(data, 60);
    ASSERT_EQ(pred.Shape(), (std::vector<int64_t>{16, 4}));
    for (float v : pred.Data()) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0f);
    }
  }
}

// DMSTGCN's day-of-week adjacency sees the calendar position of the
// predicted day: PredictDay passes the day, a raw window passes none (-1),
// which falls back to day-of-week 0. Days with t % 7 == 0 must therefore
// match the raw-window path bitwise, and other days must not (the per-day
// rows of the embedding are random).
TEST(DmstgcnTest, PredictDayUsesTheDayOfWeek) {
  CrimeDataset data = TinyCity(70);
  ComparisonConfig config = MakeComparisonConfig(/*window=*/14, /*epochs=*/1,
                                                 /*steps_per_epoch=*/2,
                                                 /*seed=*/9);
  config.baseline.hidden = 8;
  auto model = MakeForecaster("DMSTGCN", config.baseline, config.sthsl);
  model->Fit(data, 56);
  int differing_days = 0;
  for (int64_t t = 56; t < 70; ++t) {
    SCOPED_TRACE(t);
    const std::vector<float> by_day = model->PredictDay(data, t).Data();
    const std::vector<float> by_window =
        model->PredictWindows({data.WindowInput(t, 14)}).front().Data();
    if (t % 7 == 0) {
      EXPECT_EQ(by_day, by_window);
    } else if (by_day != by_window) {
      ++differing_days;
    }
  }
  EXPECT_GT(differing_days, 0);
}

}  // namespace
}  // namespace sthsl
