#include "core/forecaster.h"

#include <string>
#include <vector>

#include "util/check.h"
#include "util/obs/run_ledger.h"

namespace sthsl {
namespace {

obs::RunLedgerEval ToLedgerEval(const std::string& name, const EvalResult& r) {
  obs::RunLedgerEval eval;
  eval.name = name;
  eval.mae = r.mae;
  eval.mape = r.mape;
  eval.rmse = r.rmse;
  eval.entries = r.evaluated_entries;
  return eval;
}

}  // namespace

std::vector<Tensor> Forecaster::PredictWindows(
    const std::vector<Tensor>& windows) const {
  STHSL_CHECK(false) << Name()
                     << " does not support raw-window prediction; only "
                        "models with SupportsWindowPredict() can serve";
  return {};
}

CrimeMetrics EvaluateForecaster(Forecaster& model, const CrimeDataset& data,
                                int64_t test_start, int64_t test_end) {
  STHSL_CHECK(test_start > 0 && test_end <= data.num_days() &&
              test_start < test_end)
      << "invalid test range [" << test_start << ", " << test_end << ")";
  CrimeMetrics metrics(data.num_regions(), data.num_categories());
  for (int64_t t = test_start; t < test_end; ++t) {
    Tensor pred = model.PredictDay(data, t);
    metrics.AddDay(pred, data.TargetDay(t));
  }
  // Close the model's open run-ledger run with the masked test metrics. The
  // ledger itself ignores the call when no run is open or when the open run
  // belongs to a different model (e.g. classical baselines never open one).
  auto& ledger = obs::RunLedger::Global();
  if (ledger.Active()) {
    std::vector<obs::RunLedgerEval> categories;
    categories.reserve(static_cast<size_t>(data.num_categories()));
    for (int64_t c = 0; c < data.num_categories(); ++c) {
      categories.push_back(ToLedgerEval(
          data.category_names()[static_cast<size_t>(c)], metrics.Category(c)));
    }
    ledger.RecordFinalEval(model.Name(), data.city_name(),
                           ToLedgerEval("overall", metrics.Overall()),
                           categories);
  }
  return metrics;
}

}  // namespace sthsl
