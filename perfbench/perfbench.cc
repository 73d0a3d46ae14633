// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--smoke] [--commit HASH] [--source-digest HEX]
//
// Runs one workload against the library's public API in this process,
// checks every output, and prints one JSON result object as the last line
// of stdout. With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown, measured by splitting the
// run into an untraced half and a traced half (the difference between the
// two is reported as trace.overhead_pct). See perfbench/README.md for the
// workloads, the metric definitions and the layer -> metric -> workload map.
//
// Per-layer numbers come from spans this file records around calls into
// each module's public functions, and from the profiles and counters the
// library already exposes (obs::OpProfiles / ScopeProfiles /
// PeakTensorBytes, exec::GetPoolStats, InferenceEngine::cache_stats /
// batcher_stats and the serve/stage/* LogHistograms). Nothing inside the
// library is instrumented for the benchmark.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sthsl_model.h"
#include "data/crime_dataset.h"
#include "data/generator.h"
#include "exec/exec.h"
#include "metrics/metrics.h"
#include "serve/bundle.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "serve/service.h"
#include "simd/simd.h"
#include "util/json_mini.h"
#include "util/obs/calibrate.h"
#include "util/obs/log_histogram.h"
#include "util/obs/metrics.h"
#include "util/obs/obs.h"

namespace {

using sthsl::CrimeDataset;
using sthsl::Tensor;
namespace obs = sthsl::obs;
namespace exec = sthsl::exec;
namespace serve = sthsl::serve;

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json lists the same names and units; the smoke
// test checks that the two agree.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"windows_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.step_ms", "ms"},
    {"core.forward_ms", "ms"},
    {"core.backward_ms", "ms"},
    {"core.optimizer_ms", "ms"},
    {"core.unattributed_ms", "ms"},
    {"core.local_encoder_ms", "ms"},
    {"core.hypergraph_prop_ms", "ms"},
    {"core.global_temporal_ms", "ms"},
    {"core.ssl_loss_ms", "ms"},
    {"core.predict_head_ms", "ms"},
    {"core.infer_window_ms", "ms"},
    {"tensor.gemm_ms", "ms"},
    {"tensor.conv_ms", "ms"},
    {"tensor.elementwise_ms", "ms"},
    {"tensor.data_movement_ms", "ms"},
    {"tensor.reduction_ms", "ms"},
    {"tensor.other_ms", "ms"},
    {"tensor.ops_per_window", "count"},
    {"tensor.data_movement_mb", "MB"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.peak_mb", "MB"},
    {"sparse.spmm_ms", "ms"},
    {"exec.utilization", "ratio"},
    {"exec.regions_per_window", "count"},
    {"data.window_input_us", "us"},
    {"data.generate_s", "s"},
    {"metrics.mae", "count"},
    {"metrics.mae_scaled", "ratio"},
    {"serve.handler_ms", "ms"},
    {"serve.http_ms", "ms"},
    {"serve.header_parse_us", "us"},
    {"serve.body_parse_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.inference_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.timeout_flush_share", "ratio"},
    {"serve.rss_growth_mb", "MB"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.requests", "count"},
    {"trace.overhead_pct", "%"},
    {"host.steal_pct", "%"},
    {"error_rate", "ratio"},
};

// Op-class table: every op name obs::OpProfiles() reports maps to one
// tensor.* class. Names missing from the table land in "other" and are
// listed by name in the output, so an op added later never drops silently
// out of the breakdown.
const char* OpClass(const std::string& op) {
  static const std::map<std::string, const char*> kTable = {
      {"matmul", "gemm"},
      {"conv2d", "conv"},
      {"add", "elementwise"},
      {"sub", "elementwise"},
      {"mul", "elementwise"},
      {"div", "elementwise"},
      {"add_scalar", "elementwise"},
      {"mul_scalar", "elementwise"},
      {"neg", "elementwise"},
      {"exp", "elementwise"},
      {"log", "elementwise"},
      {"sqrt", "elementwise"},
      {"abs", "elementwise"},
      {"pow_scalar", "elementwise"},
      {"square", "elementwise"},
      {"sigmoid", "elementwise"},
      {"tanh", "elementwise"},
      {"relu", "elementwise"},
      {"leaky_relu", "elementwise"},
      {"clamp_min", "elementwise"},
      // Optimizer updates are fused elementwise kernels; core.optimizer_ms
      // reports them separately as well.
      {"adam_step", "elementwise"},
      {"sgd_step", "elementwise"},
      {"permute", "data_movement"},
      {"reshape", "data_movement"},
      {"narrow", "data_movement"},
      {"index_select", "data_movement"},
      {"cat", "data_movement"},
      {"sum_all", "reduction"},
      {"sum_dims", "reduction"},
      {"softmax", "reduction"},
      {"spmm", "sparse"},
      {"gather", "sparse"},
      {"sparse_values", "sparse"},
  };
  if (op.rfind("fused_elemwise", 0) == 0) return "elementwise";
  const auto it = kTable.find(op);
  return it == kTable.end() ? "other" : it->second;
}

bool IsOptimizerKernel(const std::string& op) {
  return op == "adam_step" || op == "sgd_step";
}

// ---------------------------------------------------------------------------
// Small utilities.

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// A /proc/self/status field in MB (VmHWM = peak RSS, VmRSS = current).
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
  }
  return 0.0;
}

// Cumulative CPU ticks of the whole machine from /proc/stat: all states,
// and "steal" (time the hypervisor ran another guest on our virtual CPUs).
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// Share of the machine's CPU time stolen by the hypervisor since `start`,
// in percent. Timings of runs with a large share are not comparable.
double StealPercent(const CpuTicks& start) {
  const CpuTicks now = ReadCpuTicks();
  const double total = now.total - start.total;
  return total > 0.0 ? 100.0 * (now.steal - start.steal) / total : 0.0;
}

uint64_t HashParameters(const sthsl::SthslNet& net) {
  uint64_t h = 1469598103934665603ull;
  for (const Tensor& p : net.Parameters()) {
    const std::vector<float>& data = p.Data();
    const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
    for (size_t i = 0; i < data.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  }
  return h;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool AllFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Options, checks and the result object.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// Failure accounting: every operation the workload performs is attempted;
// every failed output check counts one failure and fails the run.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;

  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (messages.size() < 8) messages.push_back(what);
  }
};

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  // Prints every metric of `table` (0 when the workload never set it) as the
  // final JSON line. Aborts on a name outside both tables: a typo must never
  // produce a silently missing metric.
  void Print(const Checks& checks, const MetricSpec* table, size_t n) const {
    std::set<std::string> known;
    for (const MetricSpec& spec : kEndToEnd) known.insert(spec.name);
    for (const MetricSpec& spec : kPerLayer) known.insert(spec.name);
    for (const auto& [name, value] : values_) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "perfbench: metric %s is not in the table\n",
                     name.c_str());
        std::abort();
      }
    }
    bool correct = checks.failed == 0 && checks.attempted > 0;
    std::string json = "{\"correct\": ";
    std::string metrics;
    for (size_t i = 0; i < n; ++i) {
      const auto it = values_.find(table[i].name);
      const double value = it == values_.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) correct = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(value) ? value : 0.0);
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + std::string(table[i].name) + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + table[i].unit + "\"}";
    }
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {" + metrics + "}}";
    for (const std::string& message : checks.messages) {
      std::printf("# check failed: %s\n", message.c_str());
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Traced-phase layer breakdown from the obs profiles.

struct TracedWindow {
  std::vector<obs::OpProfile> ops;
  std::vector<obs::ScopeProfile> scopes;
  int64_t peak_tensor_bytes = 0;
};

TracedWindow CollectTrace() {
  return {obs::OpProfiles(), obs::ScopeProfiles(), obs::PeakTensorBytes()};
}

double ScopeMicros(const TracedWindow& trace, const char* name) {
  for (const obs::ScopeProfile& scope : trace.scopes) {
    if (scope.name == name) return scope.total_us;
  }
  return 0.0;
}

// Fills core.* and tensor.* / sparse.* per unit of work (`units` training
// windows or inferred windows). `step_us` is the train/step wall time (0
// for serving, which has no optimizer step). Ops the class table does not
// know are counted as "other" and named on stdout.
void ReportLayers(const TracedWindow& trace, double units, double step_us,
                  Report* report) {
  if (units <= 0.0) return;
  const double per_unit_ms = 1.0 / (units * 1000.0);
  std::map<std::string, double> class_us;
  double forward_us = 0.0;
  double backward_us = 0.0;
  double optimizer_us = 0.0;
  double forward_calls = 0.0;
  double movement_bytes = 0.0;
  double gemm_flops = 0.0;
  double gemm_us = 0.0;
  for (const obs::OpProfile& op : trace.ops) {
    const std::string cls = OpClass(op.name);
    if (cls == "other") {
      std::printf("# tensor.other_ms includes unclassified op %s\n",
                  op.name.c_str());
    }
    class_us[cls] += op.forward_us + op.backward_us;
    if (IsOptimizerKernel(op.name)) {
      optimizer_us += op.forward_us;
      continue;
    }
    forward_us += op.forward_us;
    backward_us += op.backward_us;
    forward_calls += static_cast<double>(op.forward_calls);
    if (cls == "data_movement") {
      movement_bytes +=
          static_cast<double>(op.bytes_touched + op.backward_bytes);
    }
    if (cls == "gemm") {
      gemm_flops += static_cast<double>(op.forward_flops + op.backward_flops);
      gemm_us += op.forward_us + op.backward_us;
    }
  }
  report->Set("core.forward_ms", forward_us * per_unit_ms);
  report->Set("core.backward_ms", backward_us * per_unit_ms);
  report->Set("core.optimizer_ms", optimizer_us * per_unit_ms);
  if (step_us > 0.0) {
    report->Set("core.step_ms", step_us * per_unit_ms);
    report->Set("core.unattributed_ms",
                (step_us - forward_us - backward_us - optimizer_us) *
                    per_unit_ms);
  }
  report->Set("core.local_encoder_ms",
              ScopeMicros(trace, "sthsl/local_encoder") * per_unit_ms);
  report->Set("core.hypergraph_prop_ms",
              ScopeMicros(trace, "sthsl/hypergraph_prop") * per_unit_ms);
  report->Set("core.global_temporal_ms",
              ScopeMicros(trace, "sthsl/global_temporal") * per_unit_ms);
  report->Set("core.ssl_loss_ms", (ScopeMicros(trace, "sthsl/infomax_loss") +
                                   ScopeMicros(trace, "sthsl/contrastive_loss")) *
                                      per_unit_ms);
  report->Set("core.predict_head_ms",
              ScopeMicros(trace, "sthsl/predict_head") * per_unit_ms);
  for (const char* cls : {"gemm", "conv", "elementwise", "data_movement",
                          "reduction", "other"}) {
    report->Set(std::string("tensor.") + cls + "_ms",
                class_us[cls] * per_unit_ms);
  }
  report->Set("sparse.spmm_ms", class_us["sparse"] * per_unit_ms);
  report->Set("tensor.ops_per_window", forward_calls / units);
  report->Set("tensor.data_movement_mb", movement_bytes / units / 1e6);
  report->Set("tensor.gemm_gflops",
              gemm_us > 0.0 ? gemm_flops / gemm_us / 1e3 : 0.0);
  report->Set("tensor.peak_mb",
              static_cast<double>(trace.peak_tensor_bytes) / 1e6);
}

// ---------------------------------------------------------------------------
// Data.

struct City {
  CrimeDataset data;
  int64_t train_end = 0;
};

City MakeCity(const sthsl::CrimeGenConfig& preset, uint64_t seed) {
  sthsl::CrimeGenConfig config = preset;
  config.seed = seed;
  City city;
  city.data = sthsl::GenerateCrimeData(config);
  city.train_end = city.data.num_days() - city.data.num_days() / 8;
  return city;
}

// Masked MAE of the model's predictions, divided by the masked MAE of the
// naive forecast "every cell repeats its mean over the input window" on the
// same days. Datasets of different seeds differ in how hard they are;
// dividing by the naive error removes most of that difference, while any
// change in the model's numerics still moves the figure.
class ScaledMae {
 public:
  explicit ScaledMae(const CrimeDataset& data)
      : data_(data),
        model_(data.num_regions(), data.num_categories()),
        naive_(data.num_regions(), data.num_categories()) {}

  void Add(const Tensor& prediction, int64_t t, const Tensor& window) {
    const int64_t regions = window.Size(0);
    const int64_t days = window.Size(1);
    const int64_t cats = window.Size(2);
    std::vector<float> mean(static_cast<size_t>(regions * cats), 0.0f);
    const std::vector<float>& w = window.Data();
    for (int64_t r = 0; r < regions; ++r) {
      for (int64_t d = 0; d < days; ++d) {
        for (int64_t c = 0; c < cats; ++c) {
          mean[static_cast<size_t>(r * cats + c)] +=
              w[static_cast<size_t>((r * days + d) * cats + c)] /
              static_cast<float>(days);
        }
      }
    }
    const Tensor truth = data_.TargetDay(t);
    model_.AddDay(prediction, truth);
    naive_.AddDay(Tensor::FromVector({regions, cats}, std::move(mean)), truth);
  }

  double mae() const { return model_.Overall().mae; }
  double scaled() const { return mae() / naive_.Overall().mae; }

 private:
  const CrimeDataset& data_;
  sthsl::CrimeMetrics model_;
  sthsl::CrimeMetrics naive_;
};

// The paper's dense ST-HSL configuration (d = 16, H = 128, W = 14, batch 4)
// with one optimizer step per epoch, so EpochSeconds() yields one wall time
// per step. Validation is off: the step budget is fixed and the benchmark
// measures training, not model selection.
sthsl::SthslConfig ModelConfig(int64_t steps, float hypergraph_density) {
  sthsl::SthslConfig config;
  config.hypergraph_density = hypergraph_density;
  config.train.window = 14;
  config.train.batch_size = 4;
  config.train.epochs = steps;
  config.train.max_steps_per_epoch = 1;
  config.train.validation_days = 0;
  return config;
}

// ---------------------------------------------------------------------------
// Train workloads.

struct TrainSpec {
  sthsl::CrimeGenConfig preset;
  int threads;
  int64_t steps_per_fit;
  float hypergraph_density;
  int64_t eval_days;  // held-out days predicted after the warm-up fit
};

struct FitResult {
  std::vector<double> step_seconds;
  uint64_t hash = 0;
  double seconds = 0.0;
};

// Reads the run ledger a Fit wrote and checks every epoch loss is finite
// (the ledger renders a non-finite loss as null).
void CheckLedgerLosses(const std::string& path, int64_t expected_epochs,
                       Checks* checks) {
  std::ifstream in(path);
  std::string line;
  int64_t epochs = 0;
  while (std::getline(in, line)) {
    sthsl::json::JsonValue record;
    std::string error;
    if (!sthsl::json::JsonParser(line).Parse(&record, &error)) {
      checks->Expect(false, "run ledger line does not parse: " + error);
      continue;
    }
    const auto* kind =
        record.FindOfKind("record", sthsl::json::JsonValue::Kind::kString);
    if (kind == nullptr || kind->text != "epoch") continue;
    ++epochs;
    const auto* loss =
        record.FindOfKind("loss", sthsl::json::JsonValue::Kind::kNumber);
    checks->Expect(loss != nullptr && std::isfinite(loss->number),
                   "training loss of epoch " + std::to_string(epochs) +
                       " is not finite");
  }
  checks->Expect(epochs == expected_epochs,
                 "run ledger holds " + std::to_string(epochs) +
                     " epoch records, expected " +
                     std::to_string(expected_epochs));
}

int RunTrain(const Options& opts, const TrainSpec& spec, Report* report,
             Checks* checks) {
  exec::SetThreadCount(spec.threads);
  const int64_t steps = opts.smoke ? 2 : spec.steps_per_fit;
  const sthsl::SthslConfig config =
      ModelConfig(steps, spec.hypergraph_density);

  // Set-up is data generation (repeated; median) plus the part of each
  // timed Fit outside its epochs, where Prepare computes the normalization
  // moments and builds the network and the optimizer (median over fits).
  const int setup_repeats = opts.smoke ? 1 : 15;
  std::vector<double> generate_s;
  City city;
  for (int i = 0; i < setup_repeats; ++i) {
    const double t0 = NowSeconds();
    city = MakeCity(spec.preset, opts.seed);
    generate_s.push_back(NowSeconds() - t0);
  }
  const CrimeDataset& data = city.data;
  const int64_t window = config.train.window;
  const int64_t batch = config.train.batch_size;

  const CpuTicks cpu_start = ReadCpuTicks();
  const double deadline = NowSeconds() + opts.seconds;

  auto fit = [&](const std::string& run_log) {
    sthsl::SthslConfig run_config = config;
    run_config.train.run_log = run_log;
    auto model = std::make_unique<sthsl::SthslForecaster>(run_config);
    const double t0 = NowSeconds();
    model->Fit(data, city.train_end);
    FitResult result;
    result.seconds = NowSeconds() - t0;
    result.step_seconds = model->EpochSeconds();
    result.hash = HashParameters(*model->net());
    checks->attempted += steps;
    checks->Expect(static_cast<int64_t>(result.step_seconds.size()) == steps,
                   "Fit ran " + std::to_string(result.step_seconds.size()) +
                       " steps, expected " + std::to_string(steps));
    return std::make_pair(std::move(result), std::move(model));
  };

  // Warm-up fit: writes a run ledger so every training loss is checked, and
  // fixes the parameter hash every later repeat of this seed must reproduce
  // (the determinism contract). Its timings are not reported.
  const std::string ledger = opts.work_dir + "/ledger.jsonl";
  auto [warm, model] = fit(ledger);
  CheckLedgerLosses(ledger, steps, checks);
  const uint64_t reference_hash = warm.hash;

  // Held-out evaluation of the fitted model through the single-window
  // inference entry point: masked MAE over evenly spaced test days. The days
  // are predicted once here and again, a few at a time, after every timed
  // fit, so the inference samples span the whole run; every repeat must be
  // bit-identical to the first prediction.
  const int64_t test_days = data.num_days() - city.train_end;
  const size_t eval_days = static_cast<size_t>(
      std::min<int64_t>(opts.smoke ? 4 : spec.eval_days, test_days));
  std::vector<Tensor> eval_inputs;
  std::vector<std::vector<float>> eval_first;
  std::vector<double> infer_ms;
  auto predict = [&](size_t i) {
    const double t0 = NowSeconds();
    std::vector<Tensor> out = model->PredictWindows({eval_inputs[i]});
    infer_ms.push_back((NowSeconds() - t0) * 1e3);
    ++checks->attempted;
    const bool ok = out.size() == 1 && AllFinite(out[0].Data());
    checks->Expect(ok, "non-finite prediction for a test day");
    return ok ? out[0] : Tensor();
  };
  ScaledMae metrics(data);
  for (size_t i = 0; i < eval_days; ++i) {
    const int64_t t = city.train_end + static_cast<int64_t>(i) * test_days /
                                           static_cast<int64_t>(eval_days);
    eval_inputs.push_back(data.WindowInput(t, window));
    const Tensor prediction = predict(i);
    if (!prediction.Defined()) return 1;
    eval_first.push_back(prediction.Data());
    metrics.Add(prediction, t, eval_inputs.back());
  }
  const double mae = metrics.mae();
  const double mae_scaled = metrics.scaled();
  checks->Expect(std::isfinite(mae_scaled) && mae > 0.0,
                 "test MAE is not positive");
  size_t next_eval = 0;
  auto eval_round = [&] {
    for (size_t n = 0; n < std::max<size_t>(1, eval_days / 4); ++n) {
      const size_t i = next_eval++ % eval_days;
      const Tensor prediction = predict(i);
      checks->Expect(prediction.Defined() &&
                         BitEqual(eval_first[i], prediction.Data()),
                     "repeated prediction differs for a test day");
    }
  };

  // Timed fits until the deadline. With --trace 1 they alternate between
  // untraced and traced, so drift over the run falls on both sides of the
  // tracing-overhead comparison alike; the profiler and the pool counters
  // cover the traced fits only.
  std::vector<double> untraced_steps;
  std::vector<double> traced_steps;
  std::vector<double> fit_setup_s;
  double traced_wall = 0.0;
  double pool_busy_us = 0.0;
  int64_t pool_regions = 0;
  auto& loss_histogram =
      obs::MetricsRegistry::Global().GetHistogram("train/epoch_loss");
  const int64_t losses_before = loss_histogram.GetSnapshot().count;
  if (opts.trace) obs::ResetProfiler();
  for (bool traced = false;; traced = opts.trace && !traced) {
    const exec::PoolStats pool0 = exec::GetPoolStats();
    const double t0 = NowSeconds();
    obs::SetTraceEnabled(traced);
    // The fitted model dies with the temporary, while the profiler is still
    // on, so its frees balance its allocations in the tensor-memory count.
    const FitResult result = fit("").first;
    obs::SetTraceEnabled(false);
    const exec::PoolStats pool1 = exec::GetPoolStats();
    checks->Expect(result.hash == reference_hash,
                   "trained parameters differ across repeats of one seed");
    const std::vector<double>& step_s = result.step_seconds;
    if (traced) {
      traced_steps.insert(traced_steps.end(), step_s.begin(), step_s.end());
      traced_wall += NowSeconds() - t0;
      pool_busy_us += pool1.total_busy_us() - pool0.total_busy_us();
      pool_regions += pool1.regions_launched - pool0.regions_launched;
    } else {
      untraced_steps.insert(untraced_steps.end(), step_s.begin(),
                            step_s.end());
      fit_setup_s.push_back(result.seconds -
                            std::accumulate(step_s.begin(), step_s.end(), 0.0));
    }
    eval_round();
    const bool both = !opts.trace || !traced_steps.empty();
    if (both && NowSeconds() + 0.5 * result.seconds >= deadline) break;
  }

  if (!opts.trace) {
    const double total = std::accumulate(untraced_steps.begin(),
                                         untraced_steps.end(), 0.0);
    report->Set("setup_s", Median(generate_s) + Median(fit_setup_s));
    report->Set("windows_per_s",
                static_cast<double>(untraced_steps.size() * batch) / total);
    report->Set("peak_rss_mb", ProcStatusMb("VmHWM"));
    std::printf("# %s: %zu timed steps, median step %.1f ms; %zu inference "
                "samples, p50 %.3f ms; test MAE %.6g (%.6g of the window-mean "
                "forecast's); %.1f%% of CPU time stolen by the host\n",
                opts.workload.c_str(), untraced_steps.size(),
                Median(untraced_steps) * 1e3, infer_ms.size(),
                Median(infer_ms), mae, mae_scaled, StealPercent(cpu_start));
    return 0;
  }

  const TracedWindow trace = CollectTrace();
  const obs::Histogram::Snapshot losses = loss_histogram.GetSnapshot();
  checks->Expect(losses.count - losses_before ==
                     static_cast<int64_t>(traced_steps.size()),
                 "traced training recorded the wrong number of losses");
  checks->Expect(std::isfinite(losses.min) && std::isfinite(losses.max),
                 "traced training loss is not finite");

  // Benchmark-side span around the data module's window accessors.
  std::vector<double> window_input_us;
  for (int64_t t = window; t < city.train_end; ++t) {
    const double t0 = NowSeconds();
    const Tensor input = data.WindowInput(t, window);
    const Tensor target = data.TargetDay(t);
    window_input_us.push_back((NowSeconds() - t0) * 1e6);
    checks->Expect(input.Numel() > 0 && target.Numel() > 0,
                   "empty training window");
  }

  const double windows = static_cast<double>(traced_steps.size() * batch);
  ReportLayers(trace, windows, ScopeMicros(trace, "train/step"), report);
  report->Set("exec.utilization",
              pool_busy_us / (traced_wall * 1e6 * spec.threads));
  report->Set("exec.regions_per_window",
              static_cast<double>(pool_regions) / windows);
  report->Set("data.window_input_us", Median(window_input_us));
  report->Set("core.infer_window_ms", Median(infer_ms));
  report->Set("data.generate_s", Median(generate_s));
  report->Set("metrics.mae", mae);
  report->Set("metrics.mae_scaled", mae_scaled);
  report->Set("trace.overhead_pct",
              (Median(traced_steps) / Median(untraced_steps) - 1.0) * 100.0);
  report->Set("host.steal_pct", StealPercent(cpu_start));
  std::printf("# %s: %zu untraced and %zu traced steps\n",
              opts.workload.c_str(), untraced_steps.size(),
              traced_steps.size());
  return 0;
}

// ---------------------------------------------------------------------------
// HTTP client (one blocking keep-alive connection per closed-loop caller).

class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (fd_ >= 0 && sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return sent == data.size();
  }

  // Reads one Content-Length framed response into `head` and `body`.
  bool Read(std::string* head, std::string* body) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    *head = buffer_.substr(0, header_end);
    size_t length = 0;
    for (const char* key : {"Content-Length:", "content-length:"}) {
      const size_t at = head->find(key);
      if (at != std::string::npos) {
        length = std::strtoul(head->c_str() + at + std::strlen(key), nullptr,
                              10);
      }
    }
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + length) {
      if (!Fill()) return false;
    }
    body->assign(buffer_, body_start, length);
    buffer_.erase(0, body_start + length);
    return true;
  }

 private:
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string RenderBody(const Tensor& window) {
  std::string body = "{\"window\": [";
  char buf[32];
  const std::vector<float>& values = window.Data();
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",",
                  static_cast<double>(values[i]));
    body += buf;
  }
  body += "]}";
  return body;
}

// Header block of a predict POST; the body is sent after it.
std::string PredictRequest(const std::string& body,
                           const std::string& traceparent) {
  std::string request =
      "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n";
  if (!traceparent.empty()) request += "traceparent: " + traceparent + "\r\n";
  return request + "\r\n";
}

// Checks one predict response against the direct prediction: status 200,
// the sent trace id echoed in the traceparent header and the body, and every
// predicted value bit-equal after the %.9g round trip.
bool CheckResponse(const std::string& head, const std::string& body,
                   const std::string& trace_id,
                   const std::vector<float>& expected, bool expect_hit,
                   std::string* why) {
  if (head.rfind("HTTP/1.1 200", 0) != 0) {
    *why = "status line " + head.substr(0, head.find('\r'));
    return false;
  }
  const size_t tp = head.find("traceparent: 00-");
  if (tp == std::string::npos || head.compare(tp + 16, 32, trace_id) != 0) {
    *why = "traceparent header does not echo the trace id";
    return false;
  }
  if (body.find("\"trace_id\": \"" + trace_id + "\"") == std::string::npos) {
    *why = "body does not carry the trace id";
    return false;
  }
  if (expect_hit && body.find("\"cache_hit\": true") == std::string::npos) {
    *why = "hot window was not a cache hit";
    return false;
  }
  const size_t at = body.find("\"prediction\": [");
  if (at == std::string::npos) {
    *why = "no prediction array";
    return false;
  }
  const char* p = body.c_str() + at + 15;
  for (size_t i = 0; i < expected.size(); ++i) {
    char* end = nullptr;
    const float value = std::strtof(p, &end);
    if (end == p || std::memcmp(&value, &expected[i], sizeof value) != 0) {
      *why = "prediction value " + std::to_string(i) +
             " differs from direct PredictWindows";
      return false;
    }
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  if (*p != ']') {
    *why = "prediction array has the wrong length";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Serve workloads.

struct ServeStack {
  sthsl::CrimeDataset data;
  serve::LoadedBundle direct;  // second load of the bundle, for PredictWindows
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<serve::PredictService> service;
  std::unique_ptr<serve::HttpServer> server;
  // Benchmark-side span around PredictService::HandlePredict, recorded only
  // while the traced half runs.
  std::atomic<bool> time_handler{false};
  std::atomic<int64_t> handler_ns{0};
  std::atomic<int64_t> handler_calls{0};

  ~ServeStack() {
    if (server) server->Drain();
    server.reset();
    service.reset();
    if (engine) engine->Shutdown();
  }
};

struct ClientPhase {
  std::vector<double> rtt_ms;
  double wall_s = 0.0;
  int64_t failed = 0;
  std::string first_error;
};

// Closed loop: each of `connections` callers POSTs its next window as soon
// as the previous response arrived. Caller c starts at window
// c * pool / connections and walks the pool, so consecutive requests on a
// connection carry distinct windows.
ClientPhase RunClients(int port, int connections, double seconds,
                       int64_t min_requests,
                       const std::vector<std::string>& bodies,
                       const std::vector<std::vector<float>>& expected,
                       bool expect_hit, uint64_t seed) {
  struct Caller {
    std::vector<double> rtt_ms;
    int64_t failed = 0;
    std::string first_error;
  };
  std::vector<Caller> callers(static_cast<size_t>(connections));
  const size_t pool = bodies.size();
  const double start = NowSeconds();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Caller& me = callers[static_cast<size_t>(c)];
      me.rtt_ms.reserve(1 << 16);
      Connection conn;
      uint64_t id_state = seed * 0x100000001b3ull + static_cast<uint64_t>(c);
      size_t next = static_cast<size_t>(c) * pool /
                    static_cast<size_t>(connections);
      std::string head;
      std::string body;
      int64_t sent = 0;
      while (sent < min_requests || NowSeconds() < deadline) {
        const size_t k = next++ % pool;
        const std::string trace_id =
            Hex64(SplitMix64(&id_state) | 1) + Hex64(SplitMix64(&id_state));
        const std::string& payload = bodies[k];
        const std::string request = PredictRequest(
            payload,
            "00-" + trace_id + "-" + Hex64(SplitMix64(&id_state) | 1) + "-01");
        ++sent;
        const double t0 = NowSeconds();
        const bool ok = (conn.Send(request) && conn.Send(payload)) ||
                        (conn.Open(port) && conn.Send(request) &&
                         conn.Send(payload));
        if (!ok || !conn.Read(&head, &body)) {
          conn.Close();
          ++me.failed;
          if (me.first_error.empty()) me.first_error = "connection failed";
          continue;
        }
        me.rtt_ms.push_back((NowSeconds() - t0) * 1e3);
        std::string why;
        if (!CheckResponse(head, body, trace_id, expected[k], expect_hit,
                           &why)) {
          ++me.failed;
          if (me.first_error.empty()) me.first_error = why;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClientPhase phase;
  phase.wall_s = NowSeconds() - start;
  for (Caller& caller : callers) {
    phase.rtt_ms.insert(phase.rtt_ms.end(), caller.rtt_ms.begin(),
                        caller.rtt_ms.end());
    phase.failed += caller.failed;
    if (phase.first_error.empty()) phase.first_error = caller.first_error;
  }
  return phase;
}

struct StageSnapshot {
  std::map<std::string, std::pair<int64_t, double>> count_sum;
};

StageSnapshot SnapshotStages() {
  StageSnapshot snap;
  auto& registry = obs::MetricsRegistry::Global();
  for (const char* name :
       {"serve/stage/header_parse_us", "serve/stage/body_parse_us",
        "serve/stage/cache_lookup_us", "serve/stage/queue_wait_us",
        "serve/stage/inference_us", "serve/stage/serialize_us"}) {
    const obs::Histogram::Snapshot s =
        registry.GetLogHistogram(name).GetSnapshot();
    snap.count_sum[name] = {s.count, s.mean * static_cast<double>(s.count)};
  }
  return snap;
}

// Mean of one stage histogram over the requests recorded between two
// snapshots (count and sum are exact in a LogHistogram).
double StageMeanUs(const StageSnapshot& before, const StageSnapshot& after,
                   const char* name) {
  const auto& [c0, s0] = before.count_sum.at(name);
  const auto& [c1, s1] = after.count_sum.at(name);
  return c1 > c0 ? (s1 - s0) / static_cast<double>(c1 - c0) : 0.0;
}

int RunServe(const Options& opts, bool cached, Report* report,
             Checks* checks) {
  constexpr int kThreads = 2;
  constexpr int kConnections = 4;
  exec::SetThreadCount(kThreads);
  const int64_t pool = cached ? 16 : 64;
  const sthsl::SthslConfig config = ModelConfig(1, 1.0f);
  const int64_t window = config.train.window;

  // Set-up, repeated: data generation, model construction, bundle
  // write/load, engine and server start, and warm-up requests (on serve-hot
  // they fill the cache with every hot window). The last stack is kept.
  const int setup_repeats = opts.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<ServeStack> stack;
  std::vector<int64_t> days;
  std::vector<std::string> bodies;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    stack.reset();
    const double t0 = NowSeconds();
    auto next = std::make_unique<ServeStack>();
    City city = MakeCity(sthsl::NycSmallPreset(), opts.seed);
    generate_s.push_back(NowSeconds() - t0);
    next->data = std::move(city.data);
    const CrimeDataset& data = next->data;
    float mean = 0.0f;
    float stddev = 1.0f;
    data.SliceDays(0, city.train_end).ComputeMoments(&mean, &stddev);
    sthsl::SthslForecaster model(config);
    model.MaterializeForInference(data.rows(), data.cols(),
                                  data.num_categories(), mean, stddev);
    serve::BundleManifest provenance;
    provenance.city = data.city_name();
    provenance.generator_seed = static_cast<int64_t>(opts.seed);
    provenance.train_seed = config.train.seed;
    provenance.git_hash = opts.commit;
    provenance.tool = "perfbench";
    const std::string dir = opts.work_dir + "/bundle";
    const sthsl::Status written = serve::WriteBundle(model, dir, provenance);
    auto served = serve::LoadBundle(dir);
    auto direct = serve::LoadBundle(dir);
    if (!written.ok() || !served.ok() || !direct.ok()) {
      checks->Expect(false, "bundle write/load failed");
      return 1;
    }
    next->direct = std::move(direct).value();
    serve::EngineConfig engine_config;
    engine_config.cache_entries = cached ? 1024 : 0;
    next->engine = std::make_unique<serve::InferenceEngine>(
        std::move(served).value(), engine_config);
    next->service =
        std::make_unique<serve::PredictService>(next->engine.get());
    next->server = std::make_unique<serve::HttpServer>();
    next->service->Register(next->server.get());
    ServeStack* s = next.get();
    next->server->Route(
        "POST", "/v1/predict", [s](const serve::HttpRequest& request) {
          if (!s->time_handler.load(std::memory_order_relaxed)) {
            return s->service->HandlePredict(request);
          }
          const auto t0 = std::chrono::steady_clock::now();
          serve::HttpResponse response = s->service->HandlePredict(request);
          const auto dt = std::chrono::steady_clock::now() - t0;
          s->handler_ns.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count(),
              std::memory_order_relaxed);
          s->handler_calls.fetch_add(1, std::memory_order_relaxed);
          return response;
        });
    const sthsl::Status started = next->server->Start("127.0.0.1", 0);
    if (!started.ok()) {
      checks->Expect(false, "HttpServer::Start: " + started.ToString());
      return 1;
    }
    // Request windows: the last `pool` days of the span.
    days.clear();
    bodies.clear();
    for (int64_t i = 0; i < pool; ++i) {
      const int64_t t = data.num_days() - pool + i;
      days.push_back(t);
      bodies.push_back(RenderBody(data.WindowInput(t, window)));
    }
    // Warm-up: every hot window once on serve-hot (fills the cache), one
    // request per connection's worth on serve-uncached.
    Connection conn;
    std::string head;
    std::string body;
    const int64_t warm = cached ? pool : kConnections;
    for (int64_t i = 0; i < warm; ++i) {
      const std::string& payload = bodies[static_cast<size_t>(i)];
      ++checks->attempted;
      const bool sent = (i > 0 || conn.Open(next->server->port())) &&
                        conn.Send(PredictRequest(payload, "")) &&
                        conn.Send(payload) && conn.Read(&head, &body);
      checks->Expect(sent && head.rfind("HTTP/1.1 200", 0) == 0,
                     "warm-up request failed");
    }
    stack = std::move(next);
    setup_s.push_back(NowSeconds() - t0);
  }
  const CrimeDataset& data = stack->data;

  const CpuTicks cpu_start = ReadCpuTicks();
  const double deadline = NowSeconds() + opts.seconds;

  // Serial phase: each window alone through PredictWindows on a second load
  // of the bundle. It times single-window inference and produces the
  // predictions every HTTP response must reproduce bit for bit. The first
  // pass is an untimed warm-up: the first second of multi-threaded inference
  // after an idle set-up runs up to twice as slow on a virtualized host. The
  // timed passes are split between before and after the HTTP phase so the
  // samples span the run.
  std::vector<std::vector<float>> expected(static_cast<size_t>(pool));
  std::vector<double> infer_ms;
  ScaledMae metrics(data);
  auto serial_pass = [&](bool timed) {
    for (int64_t k = 0; k < pool; ++k) {
      const int64_t t = days[static_cast<size_t>(k)];
      const Tensor input = data.WindowInput(t, window);
      const double t0 = NowSeconds();
      std::vector<Tensor> out = stack->direct.model->PredictWindows({input});
      if (timed) infer_ms.push_back((NowSeconds() - t0) * 1e3);
      ++checks->attempted;
      if (out.size() != 1 || !AllFinite(out[0].Data())) {
        checks->Expect(false, "non-finite direct prediction");
        continue;
      }
      std::vector<float>& want = expected[static_cast<size_t>(k)];
      if (want.empty()) {
        want = out[0].Data();
        metrics.Add(out[0], t, input);
      } else {
        checks->Expect(BitEqual(want, out[0].Data()),
                       "repeated direct prediction differs");
      }
    }
  };
  const int timed_passes = static_cast<int>(64 / pool);
  serial_pass(false);
  const double serial_start = NowSeconds();
  for (int i = 0; i < timed_passes; ++i) serial_pass(true);
  const double serial_seconds = NowSeconds() - serial_start;
  const double mae = metrics.mae();
  const double mae_scaled = metrics.scaled();
  checks->Expect(std::isfinite(mae_scaled) && mae > 0.0,
                 "served MAE is not positive");

  // HTTP phase: the rest of the run. With --trace 1 it is split into an
  // untraced half and a traced half.
  const double http_seconds =
      std::max(1.0, deadline - NowSeconds() - serial_seconds);
  const int64_t min_requests = pool / kConnections;
  const double rss_before = ProcStatusMb("VmRSS");
  const serve::PredictionCache::Stats cache0 = stack->engine->cache_stats();
  const ClientPhase untraced =
      RunClients(stack->server->port(), kConnections,
                 opts.trace ? http_seconds / 2.0 : http_seconds, min_requests,
                 bodies, expected, cached, opts.seed);
  for (int i = 0; i < timed_passes; ++i) serial_pass(true);
  auto account = [&](const ClientPhase& phase) {
    checks->attempted += static_cast<int64_t>(phase.rtt_ms.size()) +
                         phase.failed;
    checks->failed += phase.failed;
    if (phase.failed > 0 && checks->messages.size() < 8) {
      checks->messages.push_back(phase.first_error);
    }
  };
  account(untraced);
  const double qps_untraced =
      static_cast<double>(untraced.rtt_ms.size()) / untraced.wall_s;

  if (!opts.trace) {
    const serve::PredictionCache::Stats cache1 = stack->engine->cache_stats();
    if (cached) {
      checks->Expect(cache1.misses == cache0.misses,
                     "serve-hot missed the cache in the timed phase");
    } else {
      checks->Expect(cache1.hits + cache1.misses == 0,
                     "serve-uncached consulted the cache");
    }
    report->Set("setup_s", Median(setup_s));
    report->Set("windows_per_s", qps_untraced);
    report->Set("peak_rss_mb", ProcStatusMb("VmHWM"));
    std::printf("# %s: %zu requests in %.2f s, p50 %.3f ms, p99 %.3f ms; "
                "%zu direct inference samples, p10 %.3f p50 %.3f p90 %.3f "
                "ms; served MAE %.6g (%.6g of the window-mean forecast's); "
                "%.1f%% of CPU time stolen by the host\n",
                opts.workload.c_str(), untraced.rtt_ms.size(),
                untraced.wall_s, Median(untraced.rtt_ms),
                Percentile(untraced.rtt_ms, 0.99), infer_ms.size(),
                Percentile(infer_ms, 0.1), Median(infer_ms),
                Percentile(infer_ms, 0.9), mae, mae_scaled,
                StealPercent(cpu_start));
    return 0;
  }

  // Per-window model and op breakdown (serve-uncached only; serve-hot never
  // reaches the model): one traced pass of the serial phase. It is taken
  // here rather than on the request path because a lazily fused output
  // chain materializes on the HTTP connection thread, whose op self time
  // then absorbs that thread's idle time between requests.
  if (!cached) {
    obs::SetTraceEnabled(true);
    obs::ResetProfiler();
    for (int64_t k = 0; k < pool; ++k) {
      const Tensor input =
          data.WindowInput(days[static_cast<size_t>(k)], window);
      std::vector<Tensor> out = stack->direct.model->PredictWindows({input});
      ++checks->attempted;
      checks->Expect(out.size() == 1 &&
                         BitEqual(expected[static_cast<size_t>(k)],
                                  out[0].Data()),
                     "traced direct prediction differs");
    }
    obs::SetTraceEnabled(false);
    ReportLayers(CollectTrace(), static_cast<double>(pool), 0.0, report);
  }

  // Traced half of the HTTP phase.
  const serve::MicroBatcher::Stats batch0 = stack->engine->batcher_stats();
  const serve::PredictionCache::Stats cache_t0 = stack->engine->cache_stats();
  const StageSnapshot stages0 = SnapshotStages();
  stack->time_handler.store(true);
  obs::SetTraceEnabled(true);
  const exec::PoolStats pool0 = exec::GetPoolStats();
  const ClientPhase traced =
      RunClients(stack->server->port(), kConnections, http_seconds / 2.0,
                 min_requests, bodies, expected, cached, opts.seed + 1);
  const exec::PoolStats pool1 = exec::GetPoolStats();
  obs::SetTraceEnabled(false);
  stack->time_handler.store(false);
  const StageSnapshot stages1 = SnapshotStages();
  const serve::MicroBatcher::Stats batch1 = stack->engine->batcher_stats();
  const serve::PredictionCache::Stats cache_t1 = stack->engine->cache_stats();
  account(traced);
  const double rss_after = ProcStatusMb("VmRSS");

  const double requests = static_cast<double>(traced.rtt_ms.size());
  const double inferred = static_cast<double>(batch1.requests - batch0.requests);
  const double batches = static_cast<double>(batch1.batches - batch0.batches);
  report->Set("exec.utilization",
              (pool1.total_busy_us() - pool0.total_busy_us()) /
                  (traced.wall_s * 1e6 * kThreads));
  report->Set("exec.regions_per_window",
              inferred > 0.0 ? static_cast<double>(pool1.regions_launched -
                                                   pool0.regions_launched) /
                                   inferred
                             : 0.0);
  report->Set("data.generate_s", Median(generate_s));
  report->Set("metrics.mae", mae);
  report->Set("metrics.mae_scaled", mae_scaled);
  report->Set("core.infer_window_ms", Median(infer_ms));

  double rtt_sum = 0.0;
  for (double ms : traced.rtt_ms) rtt_sum += ms;
  const double calls = static_cast<double>(stack->handler_calls.load());
  const double handler_ms =
      calls > 0.0 ? static_cast<double>(stack->handler_ns.load()) / calls / 1e6
                  : 0.0;
  report->Set("serve.handler_ms", handler_ms);
  report->Set("serve.http_ms",
              requests > 0.0 ? rtt_sum / requests - handler_ms : 0.0);
  report->Set("serve.header_parse_us",
              StageMeanUs(stages0, stages1, "serve/stage/header_parse_us"));
  report->Set("serve.body_parse_us",
              StageMeanUs(stages0, stages1, "serve/stage/body_parse_us"));
  report->Set("serve.serialize_us",
              StageMeanUs(stages0, stages1, "serve/stage/serialize_us"));
  report->Set("serve.cache_lookup_us",
              StageMeanUs(stages0, stages1, "serve/stage/cache_lookup_us"));
  const double hits = static_cast<double>(cache_t1.hits - cache_t0.hits);
  const double misses = static_cast<double>(cache_t1.misses - cache_t0.misses);
  report->Set("serve.cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  if (cached) {
    checks->Expect(misses == 0.0,
                   "serve-hot missed the cache in the timed phase");
  } else {
    checks->Expect(cache_t1.hits + cache_t1.misses == 0,
                   "serve-uncached consulted the cache");
  }
  report->Set("serve.queue_wait_ms",
              StageMeanUs(stages0, stages1, "serve/stage/queue_wait_us") /
                  1e3);
  report->Set("serve.inference_ms",
              StageMeanUs(stages0, stages1, "serve/stage/inference_us") / 1e3);
  report->Set("serve.batch_size_mean", batches > 0.0 ? inferred / batches : 0.0);
  report->Set("serve.timeout_flush_share",
              batches > 0.0 ? static_cast<double>(batch1.timeout_flushes -
                                                  batch0.timeout_flushes) /
                                  batches
                            : 0.0);
  report->Set("serve.rss_growth_mb", rss_after - rss_before);
  report->Set("serve.p50_ms", Median(untraced.rtt_ms));
  report->Set("serve.p99_ms", Percentile(untraced.rtt_ms, 0.99));
  report->Set("serve.requests", static_cast<double>(untraced.rtt_ms.size()));
  const double qps_traced = requests / traced.wall_s;
  report->Set("trace.overhead_pct", (qps_untraced / qps_traced - 1.0) * 100.0);
  report->Set("host.steal_pct", StealPercent(cpu_start));
  std::printf("# %s: %zu untraced and %zu traced requests\n",
              opts.workload.c_str(), untraced.rtt_ms.size(),
              traced.rtt_ms.size());
  return 0;
}

// ---------------------------------------------------------------------------

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintProvenance(const Options& opts, int kernel_threads) {
  std::printf(
      "{\"provenance\": {\"commit\": %s, \"source_digest\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s, \"simd\": %s, \"cpu_model\": %s, \"nproc\": %d, "
      "\"kernel_threads\": %d}}\n",
      JsonString(opts.commit).c_str(), JsonString(opts.source_digest).c_str(),
      JsonString(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, opts.smoke ? "true" : "false",
      JsonString(sthsl::simd::Kernels().name).c_str(),
      JsonString(obs::CpuModelName()).c_str(), exec::HardwareThreadCount(),
      kernel_threads);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train-small|train-city|"
               "serve-uncached|serve-hot --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--smoke] [--commit HASH] "
               "[--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--commit") {
      opts.commit = value;
    } else if (arg == "--source-digest") {
      opts.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (opts.work_dir.empty() || !(opts.seconds > 0.0)) return Usage();
  // The profiler records only while a traced phase runs, whatever
  // STHSL_TRACE in the environment says.
  obs::SetTraceEnabled(false);

  Report report;
  Checks checks;
  int status = 0;
  // Training runs on 1 kernel thread and serving on 2: on a shared host the
  // hypervisor steals up to a fifth of the CPU time of busy virtual CPUs,
  // every parallel region then waits for its slowest thread, and
  // multi-threaded training throughput swung by 40% between runs.
  if (opts.workload == "train-small" || opts.workload == "train-city") {
    PrintProvenance(opts, 1);
    const bool city = opts.workload == "train-city";
    status = RunTrain(opts,
                      city ? TrainSpec{sthsl::NycPreset(), 1, 4, 0.05f, 24}
                           : TrainSpec{sthsl::NycSmallPreset(), 1, 8, 1.0f, 38},
                      &report, &checks);
  } else if (opts.workload == "serve-uncached" ||
             opts.workload == "serve-hot") {
    PrintProvenance(opts, 2);
    status = RunServe(opts, opts.workload == "serve-hot", &report, &checks);
  } else {
    return Usage();
  }
  if (status != 0) checks.Expect(false, "workload aborted");
  report.Set("error_rate", checks.attempted > 0
                               ? static_cast<double>(checks.failed) /
                                     static_cast<double>(checks.attempted)
                               : 1.0);
  if (opts.trace) {
    report.Print(checks, kPerLayer, std::size(kPerLayer));
  } else {
    report.Print(checks, kEndToEnd, std::size(kEndToEnd));
  }
  return 0;
}
