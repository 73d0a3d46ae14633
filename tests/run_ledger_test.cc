// Tests for the run-ledger experiment log: JSONL schema and escaping of the
// writer, append semantics across runs, the final-eval model guard, and the
// end-to-end integration with the shared trainer (header + per-epoch
// gradient-flow records + final-eval record from a real Fit/Evaluate pass).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/forecaster.h"
#include "core/neural_forecaster.h"
#include "data/generator.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/obs/run_ledger.h"

namespace sthsl {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

obs::RunLedgerHeader MakeHeader(const std::string& model) {
  obs::RunLedgerHeader header;
  header.model = model;
  header.dataset_city = "NYC";
  header.dataset_rows = 3;
  header.dataset_cols = 3;
  header.dataset_days = 120;
  header.dataset_categories = 4;
  header.train_end = 100;
  header.train_seed = 7;
  header.config = {{"epochs", "2"}, {"lr", "0.005"}};
  return header;
}

// The global ledger is process-wide state; every test must leave it closed
// and unconfigured so tests stay order-independent.
class RunLedgerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::RunLedger::Global().EndRun();
    obs::RunLedger::Global().SetDefaultPath("");
  }
};

TEST_F(RunLedgerTest, HeaderEpochFinalRoundTrip) {
  const std::string path = TempPath("ledger_roundtrip.jsonl");
  std::remove(path.c_str());
  auto& ledger = obs::RunLedger::Global();

  ledger.BeginRun(MakeHeader("Tiny"), path);
  EXPECT_TRUE(ledger.Active());

  obs::RunLedgerEpoch epoch;
  epoch.epoch = 1;
  epoch.loss = 1.5;
  epoch.lr = 0.005;
  epoch.epoch_seconds = 0.25;
  epoch.windows = 16;
  epoch.grad_norm = 2.0;
  obs::RunLedgerParamStats stats;
  stats.name = "head.weight";
  stats.numel = 16;
  stats.grad_norm = 1.0;
  stats.weight_norm = 2.0;
  stats.update_ratio = 0.01;
  epoch.params.push_back(stats);
  ledger.RecordEpoch(epoch);

  obs::RunLedgerEval overall;
  overall.name = "overall";
  overall.mae = 0.5;
  overall.mape = 0.3;
  overall.rmse = 0.9;
  overall.entries = 12;
  ledger.RecordFinalEval("Tiny", "NYC", overall, {});
  EXPECT_FALSE(ledger.Active());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"record\":\"header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"schema\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"model\":\"Tiny\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"epochs\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"record\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"head.weight\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"update_ratio\":0.01"), std::string::npos);
  EXPECT_NE(lines[2].find("\"record\":\"final\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"mae\":0.5"), std::string::npos);
}

TEST_F(RunLedgerTest, EscapesStringsAndRendersNonFiniteAsNull) {
  const std::string path = TempPath("ledger_escaping.jsonl");
  std::remove(path.c_str());
  auto& ledger = obs::RunLedger::Global();

  obs::RunLedgerHeader header = MakeHeader("Mo\"del\nX");
  header.dataset_city = "tab\tcity";
  ledger.BeginRun(header, path);

  obs::RunLedgerEpoch epoch;
  epoch.epoch = 1;
  epoch.loss = std::nan("");  // non-finite must render as null, not "nan"
  epoch.grad_norm = INFINITY;
  ledger.RecordEpoch(epoch);
  ledger.EndRun();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);  // escaped newline must not split the line
  EXPECT_NE(lines[0].find("Mo\\\"del\\nX"), std::string::npos);
  EXPECT_NE(lines[0].find("tab\\tcity"), std::string::npos);
  EXPECT_NE(lines[1].find("\"loss\":null"), std::string::npos);
  EXPECT_NE(lines[1].find("\"grad_norm\":null"), std::string::npos);
  EXPECT_EQ(lines[1].find("nan"), std::string::npos);
  EXPECT_EQ(lines[1].find("inf"), std::string::npos);
}

TEST_F(RunLedgerTest, AppendsAcrossRunsWithIncreasingIds) {
  const std::string path = TempPath("ledger_append.jsonl");
  std::remove(path.c_str());
  auto& ledger = obs::RunLedger::Global();

  ledger.BeginRun(MakeHeader("A"), path);
  ledger.EndRun();
  ledger.BeginRun(MakeHeader("B"), path);
  ledger.EndRun();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"model\":\"A\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"model\":\"B\""), std::string::npos);
  // Run ids must differ so a report can tell the runs apart.
  EXPECT_NE(lines[0].substr(0, lines[0].find("\"model\"")),
            lines[1].substr(0, lines[1].find("\"model\"")));
}

TEST_F(RunLedgerTest, FinalEvalGuardIgnoresOtherModels) {
  const std::string path = TempPath("ledger_guard.jsonl");
  std::remove(path.c_str());
  auto& ledger = obs::RunLedger::Global();

  ledger.BeginRun(MakeHeader("Neural"), path);
  obs::RunLedgerEval overall;
  overall.name = "overall";
  overall.mae = 9.0;
  // A classical baseline evaluated mid-run must not close or pollute the
  // neural model's open run.
  ledger.RecordFinalEval("HA", "NYC", overall, {});
  EXPECT_TRUE(ledger.Active());
  ledger.RecordFinalEval("Neural", "NYC", overall, {});
  EXPECT_FALSE(ledger.Active());

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"model\":\"Neural\""), std::string::npos);
}

TEST_F(RunLedgerTest, EventValueNanOmitsField) {
  const std::string path = TempPath("ledger_event.jsonl");
  std::remove(path.c_str());
  auto& ledger = obs::RunLedger::Global();

  ledger.BeginRun(MakeHeader("E"), path);
  ledger.RecordEvent("restore_best", 3, 0.75);
  ledger.RecordEvent("ema_final", 5, std::nan(""));
  ledger.EndRun();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("\"kind\":\"restore_best\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"value\":0.75"), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"ema_final\""), std::string::npos);
  EXPECT_EQ(lines[2].find("\"value\""), std::string::npos);
}

// -- Trainer integration ------------------------------------------------------

class TinyForecaster : public NeuralForecaster {
 public:
  explicit TinyForecaster(TrainConfig config) : NeuralForecaster(config) {}

  std::string Name() const override { return "Tiny"; }

 protected:
  void Prepare(const CrimeDataset& data, int64_t train_end) override {
    net_ = std::make_unique<Net>(data.num_categories(), rng_);
  }
  ForwardOutput Forward(const Tensor& window, int64_t day,
                        bool training) const override {
    return {net_->head.Forward(Mean(window, {1})), {}};
  }
  Module* RootModule() const override { return net_.get(); }

 private:
  struct Net : Module {
    Net(int64_t cats, Rng& rng) : head(cats, cats, rng) {
      RegisterModule("head", &head);
    }
    Linear head;
  };
  std::unique_ptr<Net> net_;
};

CrimeDataset SmallCity() {
  CrimeGenConfig gen;
  gen.rows = 3;
  gen.cols = 3;
  gen.days = 120;
  gen.num_zones = 2;
  gen.category_totals = {300, 700, 320, 380};
  gen.seed = 5;
  return GenerateCrimeData(gen);
}

TEST_F(RunLedgerTest, FitWritesHeaderEpochsAndFinalEval) {
  const std::string path = TempPath("ledger_fit.jsonl");
  std::remove(path.c_str());

  CrimeDataset data = SmallCity();
  TrainConfig config;
  config.window = 7;
  config.epochs = 2;
  config.max_steps_per_epoch = 4;
  config.batch_size = 2;
  config.validation_days = 14;
  config.validation_every = 1;
  config.seed = 3;
  config.run_log = path;
  TinyForecaster model(config);
  model.Fit(data, 100);
  EvaluateForecaster(model, data, 100, 120);

  const std::vector<std::string> lines = ReadLines(path);
  size_t headers = 0;
  size_t epochs = 0;
  size_t finals = 0;
  for (const std::string& line : lines) {
    if (line.find("\"record\":\"header\"") != std::string::npos) ++headers;
    if (line.find("\"record\":\"epoch\"") != std::string::npos) ++epochs;
    if (line.find("\"record\":\"final\"") != std::string::npos) ++finals;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_EQ(epochs, 2u);
  EXPECT_EQ(finals, 1u);

  // The header carries the full training config and dataset provenance.
  EXPECT_NE(lines[0].find("\"model\":\"Tiny\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"train_seed\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"generator_seed\":5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"window\":7"), std::string::npos);

  // Per-epoch grad-flow rows name exactly the module's parameter tensors.
  bool saw_weight = false;
  bool saw_bias = false;
  for (const std::string& line : lines) {
    if (line.find("\"record\":\"epoch\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"grad_norm\""), std::string::npos);
    EXPECT_NE(line.find("\"update_ratio\""), std::string::npos);
    EXPECT_NE(line.find("\"zero_grad_frac\""), std::string::npos);
    if (line.find("\"name\":\"head.weight\"") != std::string::npos) {
      saw_weight = true;
    }
    if (line.find("\"name\":\"head.bias\"") != std::string::npos) {
      saw_bias = true;
    }
  }
  EXPECT_TRUE(saw_weight);
  EXPECT_TRUE(saw_bias);

  // The final record closed the run with the masked test metrics.
  EXPECT_FALSE(obs::RunLedger::Global().Active());
  EXPECT_NE(lines.back().find("\"overall\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"mae\":"), std::string::npos);
}

TEST_F(RunLedgerTest, NoLedgerPathMeansNoFile) {
  const std::string path = TempPath("ledger_disabled.jsonl");
  std::remove(path.c_str());

  CrimeDataset data = SmallCity();
  TrainConfig config;
  config.window = 7;
  config.epochs = 1;
  config.max_steps_per_epoch = 2;
  config.validation_days = 0;
  TinyForecaster model(config);
  model.Fit(data, 100);

  EXPECT_FALSE(obs::RunLedger::Global().Active());
  std::ifstream file(path);
  EXPECT_FALSE(file.good());
}

}  // namespace
}  // namespace sthsl
