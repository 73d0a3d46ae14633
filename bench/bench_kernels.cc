// Micro-benchmarks (google-benchmark) of the tensor kernels that dominate
// ST-HSL's training cost: matmul (hypergraph propagation), conv2d (spatial
// encoder), conv1d (temporal encoders), softmax (contrastive loss) and a
// full ST-HSL forward/backward step. Complements the experiment harnesses
// with the model-complexity analysis of Sec. III-F.
//
// After the google-benchmark suite, main() runs a thread-scaling sweep of
// the exec-layer kernels (1/2/4/8 threads, BENCH_parallel.json), a SIMD
// variant sweep (BENCH_kernels.json), and the roofline report
// (BENCH_roofline.json), all under $STHSL_BENCH_JSON_DIR.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "core/sthsl_model.h"
#include "exec/exec.h"
#include "simd/simd.h"
#include "sparse/sparse_tensor.h"
#include "tensor/optimizer.h"
#include "tensor/sparse_ops.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/obs/calibrate.h"
#include "util/obs/obs.h"
#include "util/obs/perf_counters.h"
#include "util/obs/roofline.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sthsl {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_HypergraphPropagation(benchmark::State& state) {
  // sigma(H^T sigma(H E)) at bench scale: H=(32, 256), E=(256, 224).
  Rng rng(2);
  Tensor hyper = Tensor::Randn({32, 256}, rng);
  Tensor embeddings = Tensor::Randn({256, 224}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor up = LeakyRelu(MatMul(hyper, embeddings), 0.1f);
    benchmark::DoNotOptimize(
        LeakyRelu(MatMul(Transpose(hyper, 0, 1), up), 0.1f));
  }
}
BENCHMARK(BM_HypergraphPropagation);

void BM_Conv2d(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  Tensor input = Tensor::Randn({batch, 4, 16, 16}, rng);
  Tensor weight = Tensor::Randn({4, 4, 3, 3}, rng);
  Tensor bias = Tensor::Randn({4}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv2d(input, weight, bias, 1, 1));
  }
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(64);

void BM_Conv1d(benchmark::State& state) {
  Rng rng(4);
  Tensor input = Tensor::Randn({1024, 4, 14}, rng);
  Tensor weight = Tensor::Randn({4, 4, 3}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv1d(input, weight, Tensor(), 1));
  }
}
BENCHMARK(BM_Conv1d);

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({256, 256}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(logits, 1));
  }
}
BENCHMARK(BM_Softmax);

void BM_SthslTrainStep(benchmark::State& state) {
  Rng rng(6);
  SthslConfig config;
  config.dim = 16;
  config.num_hyperedges = 32;
  SthslNet net(config, 8, 8, 4, 0.2f, 0.8f, rng);
  Tensor window = Tensor::Rand({64, 14, 4}, rng, 0.0f, 3.0f);
  Tensor target = Tensor::Rand({64, 4}, rng, 0.0f, 3.0f);
  for (auto _ : state) {
    SthslNet::Output out = net.Forward(window, /*training=*/true);
    Tensor loss = MseLoss(out.prediction, target);
    loss = Add(loss, MulScalar(out.infomax_loss, 0.2f));
    loss = Add(loss, MulScalar(out.contrastive_loss, 0.1f));
    loss.Backward();
    for (auto& p : net.Parameters()) p.ZeroGrad();
  }
}
BENCHMARK(BM_SthslTrainStep);

void BM_SthslInference(benchmark::State& state) {
  Rng rng(7);
  SthslConfig config;
  config.dim = 16;
  config.num_hyperedges = 32;
  SthslNet net(config, 8, 8, 4, 0.2f, 0.8f, rng);
  Tensor window = Tensor::Rand({64, 14, 4}, rng, 0.0f, 3.0f);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(window, /*training=*/false));
  }
}
BENCHMARK(BM_SthslInference);

// -- Thread-scaling sweep -----------------------------------------------------

// Best-of-`iters` wall time of `fn` in microseconds (one warmup call).
double TimeUs(const std::function<void()>& fn, int iters) {
  fn();
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMicros());
  }
  return best;
}

struct SweepKernel {
  std::string name;
  std::function<void()> run;
};

void RunThreadScalingSweep() {
  Rng rng(8);
  Tensor ga = Tensor::Randn({256, 256}, rng);
  Tensor gb = Tensor::Randn({256, 256}, rng);
  Tensor c2_in = Tensor::Randn({64, 4, 16, 16}, rng);
  Tensor c2_w = Tensor::Randn({4, 4, 3, 3}, rng);
  Tensor c2_b = Tensor::Randn({4}, rng);
  Tensor c1_in = Tensor::Randn({1024, 4, 14}, rng);
  Tensor c1_w = Tensor::Randn({4, 4, 3}, rng);
  // ST-HSL's single-channel global temporal conv: (R*C*d, 1, W).
  Tensor g1_in = Tensor::Randn({4096, 1, 14}, rng);
  Tensor g1_w = Tensor::Randn({1, 1, 3}, rng);
  Tensor ex = Tensor::Randn({int64_t{1} << 20}, rng);
  Tensor ey = Tensor::Randn({int64_t{1} << 20}, rng);

  const std::vector<SweepKernel> kernels = {
      {"gemm_nn_256", [&] { benchmark::DoNotOptimize(MatMul(ga, gb)); }},
      {"conv2d_b64",
       [&] { benchmark::DoNotOptimize(Conv2d(c2_in, c2_w, c2_b, 1, 1)); }},
      {"conv1d_b1024",
       [&] { benchmark::DoNotOptimize(Conv1d(c1_in, c1_w, Tensor(), 1)); }},
      {"conv1d_global_b4096",
       [&] { benchmark::DoNotOptimize(Conv1d(g1_in, g1_w, Tensor(), 1)); }},
      {"elementwise_1m",
       [&] { benchmark::DoNotOptimize(Sigmoid(Add(Mul(ex, ey), ex))); }},
  };
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  constexpr int kIters = 5;

  NoGradGuard no_grad;
  const int previous_threads = exec::ThreadCount();

  bench::PrintSectionTitle("exec thread scaling (best-of-5, us)");
  {
    std::vector<std::string> columns = {"kernel"};
    for (int t : thread_counts) {
      columns.push_back("t" + std::to_string(t));
    }
    columns.push_back("speedup@4");
    bench::PrintTableHeader(columns, 24, 12);
  }

  std::string json = "{\n  \"hardware_threads\": " +
                     std::to_string(exec::HardwareThreadCount()) +
                     ",\n  \"kernels\": [\n";
  for (size_t ki = 0; ki < kernels.size(); ++ki) {
    const SweepKernel& kernel = kernels[ki];
    double serial_us = 0.0;
    std::vector<double> row;
    std::string entries;
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      exec::SetThreadCount(thread_counts[ti]);
      const double us = TimeUs(kernel.run, kIters);
      if (thread_counts[ti] == 1) serial_us = us;
      const double speedup = us > 0.0 ? serial_us / us : 0.0;
      row.push_back(us);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "      {\"threads\": %d, \"us\": %.1f, "
                    "\"speedup\": %.3f}%s\n",
                    thread_counts[ti], us, speedup,
                    ti + 1 < thread_counts.size() ? "," : "");
      entries += buf;
    }
    const double at4 = row.size() > 2 && row[2] > 0.0 ? serial_us / row[2]
                                                      : 0.0;
    row.push_back(at4);
    bench::PrintTableRow(kernel.name, row, 24, 12, 1);
    char head[160];
    std::snprintf(head, sizeof head,
                  "    {\"name\": \"%s\", \"serial_us\": %.1f, "
                  "\"threads\": [\n",
                  kernel.name.c_str(), serial_us);
    json += head;
    json += entries;
    json += ki + 1 < kernels.size() ? "    ]},\n" : "    ]}\n";
  }
  json += "  ]\n}\n";
  exec::SetThreadCount(previous_threads);
  bench::MaybeWriteBenchJson("parallel", json);
}

// -- ISA sweep -----------------------------------------------------------------

// Re-times the hot kernels under every microkernel set compiled into this
// binary (dispatched best first, then each named variant) so the artifact
// shows what the SIMD dispatch layer buys on this host. Written to
// $STHSL_BENCH_JSON_DIR/BENCH_kernels.json.
void RunIsaSweep() {
  Rng rng(10);
  Tensor ga = Tensor::Randn({256, 256}, rng);
  Tensor gb = Tensor::Randn({256, 256}, rng);
  Tensor logits = Tensor::Randn({256, 256}, rng);
  Tensor ex = Tensor::Randn({int64_t{1} << 20}, rng);
  Tensor ey = Tensor::Randn({int64_t{1} << 20}, rng);
  const std::vector<SweepKernel> kernels = {
      {"gemm_nn_256", [&] { benchmark::DoNotOptimize(MatMul(ga, gb)); }},
      {"softmax_256", [&] { benchmark::DoNotOptimize(Softmax(logits, 1)); }},
      {"elementwise_chain_1m",
       [&] { benchmark::DoNotOptimize(Sigmoid(Add(Mul(ex, ey), ex))); }},
  };
  constexpr int kIters = 5;

  // Dispatched set first, then every other variant this binary carries.
  std::vector<const simd::MicrokernelSet*> variants = {&simd::Kernels()};
  for (const char* name : {"portable", "avx2"}) {
    const simd::MicrokernelSet* set = simd::KernelsByName(name);
    if (set != nullptr && std::string(set->name) != variants[0]->name) {
      variants.push_back(set);
    }
  }

  NoGradGuard no_grad;
  bench::PrintSectionTitle("SIMD variant sweep (best-of-5, us)");
  {
    std::vector<std::string> columns = {"kernel"};
    for (const auto* v : variants) columns.push_back(v->name);
    bench::PrintTableHeader(columns, 24, 12);
  }

  std::string json = "{\n  \"dispatched\": \"";
  json += simd::Kernels().name;
  json += "\",\n  \"cpu_features\": \"" + simd::CpuFeatureString() +
          "\",\n  \"threads\": " + std::to_string(exec::ThreadCount()) +
          ",\n  \"kernels\": [\n";
  for (size_t ki = 0; ki < kernels.size(); ++ki) {
    const SweepKernel& kernel = kernels[ki];
    std::vector<double> row;
    std::string entries;
    for (size_t vi = 0; vi < variants.size(); ++vi) {
      simd::SetKernelsForTesting(variants[vi]);
      const double us = TimeUs(kernel.run, kIters);
      simd::SetKernelsForTesting(nullptr);
      row.push_back(us);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "      {\"variant\": \"%s\", \"us\": %.1f}%s\n",
                    variants[vi]->name, us,
                    vi + 1 < variants.size() ? "," : "");
      entries += buf;
    }
    bench::PrintTableRow(kernel.name, row, 24, 12, 1);
    json += "    {\"name\": \"" + kernel.name + "\", \"variants\": [\n" +
            entries;
    json += ki + 1 < kernels.size() ? "    ]},\n" : "    ]}\n";
  }
  json += "  ]\n}\n";
  bench::MaybeWriteBenchJson("kernels", json);
}

// -- Roofline bench -----------------------------------------------------------

// Counter-isolated kernel workloads for the roofline report: each workload
// runs with the profiler reset, so its op profiles (analytic FLOPs/bytes +
// measured time) are cleanly attributable, and with a hardware-counter group
// open, whose reading is attached to the workload's dominant op (the counters
// cover the whole workload run, including autograd glue — documented in
// docs/performance.md). The first workload to produce a given op name wins,
// so micro workloads provide the canonical rows and the full train step only
// fills in ops nothing else exercised.
struct RooflineWorkload {
  std::string label;
  std::function<void()> run;
};

void RunRooflineBench() {
  const obs::MachinePeaks peaks =
      obs::CalibrateMachinePeaks(/*force_remeasure=*/false,
                                 /*seconds_budget=*/0.6);
  if (!peaks.valid()) {
    std::fprintf(stderr, "[bench] machine-peak calibration failed; "
                         "skipping roofline report\n");
    return;
  }
  const int threads = exec::ThreadCount();

  Rng rng(9);
  Tensor ma = Tensor::Randn({256, 256}, rng, 1.0f, true);
  Tensor mb = Tensor::Randn({256, 256}, rng, 1.0f, true);
  Tensor c_in = Tensor::Randn({16, 4, 16, 16}, rng, 1.0f, true);
  Tensor c_w = Tensor::Randn({4, 4, 3, 3}, rng, 1.0f, true);
  Tensor c_b = Tensor::Randn({4}, rng, 1.0f, true);
  Tensor logits = Tensor::Randn({256, 256}, rng, 1.0f, true);
  Tensor ex = Tensor::Randn({int64_t{1} << 20}, rng);
  Tensor ey = Tensor::Randn({int64_t{1} << 20}, rng);
  Tensor sgd_p = Tensor::Randn({int64_t{1} << 20}, rng, 1.0f, true);
  Sgd sgd_opt({sgd_p}, /*lr=*/0.01f, /*momentum=*/0.9f);
  Tensor adam_p = Tensor::Randn({int64_t{1} << 20}, rng, 1.0f, true);
  Adam adam_opt({adam_p}, /*lr=*/0.001f);

  SthslConfig net_config;
  net_config.dim = 16;
  net_config.num_hyperedges = 32;
  SthslNet net(net_config, 8, 8, 4, 0.2f, 0.8f, rng);
  Tensor window = Tensor::Rand({64, 14, 4}, rng, 0.0f, 3.0f);
  Tensor target = Tensor::Rand({64, 4}, rng, 0.0f, 3.0f);

  // Sparse kernels at the Fig.-1 density regime (~5% fill): an incidence-
  // shaped SpMM with fixed-pattern value grads, and an embedding-row gather.
  Tensor sp_dense = Tensor::Randn({128, 1024}, rng, 1.0f, true);
  for (float& v : sp_dense.MutableData()) {
    if (!rng.Bernoulli(0.05)) v = 0.0f;
  }
  sparse::SparseTensor sp_csr = ToSparse(sp_dense).ToCsr();
  Tensor sp_b = Tensor::Randn({1024, 64}, rng, 1.0f, true);
  Tensor gather_table = Tensor::Randn({4096, 64}, rng, 1.0f, true);
  std::vector<int64_t> gather_idx(2048);
  for (int64_t& idx : gather_idx) {
    idx = static_cast<int64_t>(rng.Uniform(0.0, 4096.0)) % 4096;
  }

  const std::vector<RooflineWorkload> workloads = {
      {"gemm_256",
       [&] {
         Sum(MatMul(ma, mb)).Backward();
         ma.ZeroGrad();
         mb.ZeroGrad();
       }},
      {"conv2d_b16",
       [&] {
         Sum(Conv2d(c_in, c_w, c_b, 1, 1)).Backward();
         c_in.ZeroGrad();
         c_w.ZeroGrad();
         c_b.ZeroGrad();
       }},
      {"softmax_256",
       [&] {
         Sum(Softmax(logits, 1)).Backward();
         logits.ZeroGrad();
       }},
      {"spmm_h128",
       [&] {
         Tensor vals = SparseValues(sp_dense, sp_csr);
         Sum(SpMM(sp_csr, vals, sp_b)).Backward();
         sp_dense.ZeroGrad();
         sp_b.ZeroGrad();
       }},
      {"gather_4k",
       [&] {
         Sum(GatherRows(gather_table, gather_idx)).Backward();
         gather_table.ZeroGrad();
       }},
      {"elementwise_1m",
       [&] {
         NoGradGuard no_grad;
         benchmark::DoNotOptimize(Sigmoid(Add(Mul(ex, ey), ex)));
       }},
      {"sgd_1m",
       [&] {
         sgd_p.MutableGrad().assign(static_cast<size_t>(sgd_p.Numel()),
                                    1e-4f);
         sgd_opt.Step();
       }},
      {"adam_1m",
       [&] {
         adam_p.MutableGrad().assign(static_cast<size_t>(adam_p.Numel()),
                                     1e-4f);
         adam_opt.Step();
       }},
      {"train_step",
       [&] {
         SthslNet::Output out = net.Forward(window, /*training=*/true);
         Tensor loss = MseLoss(out.prediction, target);
         loss = Add(loss, MulScalar(out.infomax_loss, 0.2f));
         loss = Add(loss, MulScalar(out.contrastive_loss, 0.1f));
         loss.Backward();
         for (auto& p : net.Parameters()) p.ZeroGrad();
       }},
  };
  constexpr int kIters = 3;

  const bool was_enabled = obs::SetTraceEnabled(true);
  std::vector<obs::RooflineEntry> entries;
  std::vector<std::string> have;
  for (const RooflineWorkload& workload : workloads) {
    obs::ResetProfiler();
    obs::HwCounterGroup counters;
    counters.Start();
    for (int i = 0; i < kIters; ++i) workload.run();
    const obs::HwCounterSample sample = counters.Stop();
    std::vector<obs::RooflineEntry> built =
        obs::BuildRoofline(obs::OpProfiles(), peaks, threads);
    size_t dominant = built.size();
    for (size_t i = 0; i < built.size(); ++i) {
      if (dominant == built.size() || built[i].flops > built[dominant].flops) {
        dominant = i;
      }
    }
    if (dominant < built.size() && sample.valid) {
      built[dominant].counters = sample;
    }
    for (auto& entry : built) {
      if (std::find(have.begin(), have.end(), entry.name) != have.end()) {
        continue;
      }
      have.push_back(entry.name);
      entries.push_back(std::move(entry));
    }
  }
  obs::ResetProfiler();
  obs::SetTraceEnabled(was_enabled);

  std::sort(entries.begin(), entries.end(),
            [](const obs::RooflineEntry& a, const obs::RooflineEntry& b) {
              return a.name < b.name;
            });

  bench::PrintSectionTitle("roofline (calibrated peaks)");
  std::printf("peaks: %.1f GFLOP/s x %d threads, %.1f GB/s (1T triad), "
              "cpu: %s%s\n",
              peaks.gflops_1t, threads, peaks.gbps_1t,
              peaks.cpu_model.c_str(), peaks.from_cache ? " [cached]" : "");
  bench::PrintTableHeader(
      {"op", "GFLOP/s", "GB/s", "int", "%roof", "bound"}, 24, 10);
  for (const obs::RooflineEntry& entry : entries) {
    std::printf("%-24s%-10.2f%-10.2f%-10.2f%-10.1f%s\n", entry.name.c_str(),
                entry.achieved_gflops, entry.achieved_gbps, entry.intensity,
                entry.pct_of_roof, entry.compute_bound ? "compute" : "memory");
  }

  bench::MaybeWriteBenchJson("roofline",
                             obs::RooflineJson(entries, peaks, threads));
}

}  // namespace
}  // namespace sthsl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  sthsl::RunThreadScalingSweep();
  sthsl::RunIsaSweep();
  sthsl::RunRooflineBench();
  return 0;
}
