// Tests for the sparse subsystem: COO/CSR layout round-trips and
// validation, SpMM / gather autograd against the dense reference (exact
// equality, per the bitwise-parity contract of docs/sparse.md), thread-count
// invariance, the dataset's sparse storage mode, and dense-vs-sparse
// training equivalence down to checkpoint bytes.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
#include "data/generator.h"
#include "data/stats.h"
#include "exec/exec.h"
#include "nn/serialization.h"
#include "sparse/sparse_tensor.h"
#include "tensor/ops.h"
#include "tensor/sparse_ops.h"
#include "util/obs/obs.h"
#include "util/rng.h"

namespace sthsl {
namespace {

using sparse::Layout;
using sparse::SparseTensor;
using sparse::ZeroPolicy;

class ThreadCountGuard {
 public:
  ThreadCountGuard() : previous_(exec::ThreadCount()) {}
  ~ThreadCountGuard() { exec::SetThreadCount(previous_); }

 private:
  int previous_;
};

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

// Roughly `density`-filled random dense buffer.
std::vector<float> RandomSparseData(Rng& rng, int64_t numel, double density) {
  std::vector<float> data(static_cast<size_t>(numel), 0.0f);
  for (auto& v : data) {
    if (rng.Bernoulli(density)) v = rng.Uniform(-2.0f, 2.0f);
  }
  return data;
}

// ------------------------------------------------------------- layouts --

TEST(SparseTensorTest, CooRoundTripProperty) {
  Rng rng(31);
  const std::vector<std::vector<int64_t>> shapes = {
      {7}, {5, 9}, {4, 6, 3}, {2, 3, 4, 5}};
  for (const auto& shape : shapes) {
    for (double density : {0.0, 0.05, 0.3, 1.0}) {
      const int64_t numel = NumelOf(shape);
      const std::vector<float> data = RandomSparseData(rng, numel, density);
      SparseTensor s = SparseTensor::FromDense(data.data(), shape);
      ASSERT_TRUE(s.Validate().ok());
      int64_t nnz = 0;
      for (float v : data) nnz += v != 0.0f ? 1 : 0;
      EXPECT_EQ(s.Nnz(), nnz);
      EXPECT_EQ(s.ToDense(), data);
    }
  }
}

TEST(SparseTensorTest, KeepExplicitZeroPolicyStoresEveryCell) {
  Rng rng(32);
  const std::vector<int64_t> shape = {6, 5};
  const std::vector<float> data = RandomSparseData(rng, 30, 0.2);
  SparseTensor s =
      SparseTensor::FromDense(data.data(), shape, ZeroPolicy::kKeepExplicit);
  ASSERT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.Nnz(), 30);  // every cell, zeros included
  EXPECT_EQ(s.ToDense(), data);
  // The explicit pattern survives a CSR round-trip too.
  SparseTensor csr = s.ToCsr();
  EXPECT_EQ(csr.Nnz(), 30);
  EXPECT_EQ(csr.ToDense(), data);
}

TEST(SparseTensorTest, CooCsrConversionsShareValuesAndPreserveOrder) {
  Rng rng(33);
  const std::vector<int64_t> shape = {8, 11};
  const std::vector<float> data = RandomSparseData(rng, 88, 0.25);
  SparseTensor coo = SparseTensor::FromDense(data.data(), shape);
  SparseTensor csr = coo.ToCsr();
  ASSERT_TRUE(csr.Validate().ok());
  EXPECT_EQ(csr.layout(), Layout::kCsr);
  // Same value buffer, not a copy.
  EXPECT_EQ(coo.Values().data(), csr.Values().data());
  SparseTensor back = csr.ToCoo();
  ASSERT_TRUE(back.Validate().ok());
  EXPECT_EQ(back.FlatIndices(), coo.FlatIndices());
  EXPECT_EQ(back.Values().data(), coo.Values().data());
  EXPECT_EQ(csr.ToDense(), data);
}

TEST(SparseTensorTest, FromPartsRejectsMalformedInput) {
  // COO: unsorted, duplicated, out-of-range, size mismatch.
  EXPECT_FALSE(
      SparseTensor::CooFromParts({2, 3}, {4, 1}, {1.0f, 2.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CooFromParts({2, 3}, {1, 1}, {1.0f, 2.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {6}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {-1}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CooFromParts({2, 3}, {0, 1}, {1.0f}).ok());
  EXPECT_TRUE(
      SparseTensor::CooFromParts({2, 3}, {0, 4}, {1.0f, 2.0f}).ok());

  // CSR: wrong row_ptr size, non-monotone, bad endpoint, unsorted or
  // escaping columns, rank != 2.
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {0, 1}, {0}, {1.0f}).ok());
  // Non-monotone row_ptr whose first row overruns cols: rejected as
  // non-monotone before any column is read through it.
  const auto non_monotone =
      SparseTensor::CsrFromParts({2, 3}, {0, 2, 1}, {0}, {1.0f});
  ASSERT_FALSE(non_monotone.ok());
  EXPECT_NE(non_monotone.status().message().find("not monotone"),
            std::string::npos);
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {1, 1, 1}, {0}, {1.0f}).ok());
  EXPECT_FALSE(SparseTensor::CsrFromParts({2, 3}, {0, 2, 2}, {2, 1},
                                          {1.0f, 2.0f})
                   .ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3}, {0, 1, 1}, {3}, {1.0f}).ok());
  EXPECT_FALSE(
      SparseTensor::CsrFromParts({2, 3, 4}, {0, 1}, {0}, {1.0f}).ok());
  EXPECT_TRUE(SparseTensor::CsrFromParts({2, 3}, {0, 2, 3}, {0, 2, 1},
                                         {1.0f, 2.0f, 3.0f})
                  .ok());
}

TEST(SparseTensorTest, StorageBytesCountedByObsProfiler) {
  const bool previous = obs::SetTraceEnabled(true);
  obs::ResetProfiler();
  Rng rng(34);
  const std::vector<float> data = RandomSparseData(rng, 400, 0.1);
  {
    SparseTensor s = SparseTensor::FromDense(data.data(), {20, 20});
    EXPECT_EQ(obs::LiveTensorBytes(), s.StorageBytes());
    EXPECT_GT(s.StorageBytes(), 0);
    EXPECT_LT(s.StorageBytes(), 400 * 4);  // beats the dense footprint
  }
  EXPECT_EQ(obs::LiveTensorBytes(), 0);
  obs::SetTraceEnabled(previous);
}

// ------------------------------------------------------------- autograd --

// Sparse SpMM must match the dense MatMul reference bitwise — forward
// values, the dense-side gradient, and the values gradient at every stored
// coordinate (zero everywhere else: fixed-pattern semantics).
TEST(SparseOpsTest, SpmmMatchesDenseReferenceBitwise) {
  Rng rng(35);
  const int64_t m = 13;
  const int64_t k = 17;
  const int64_t n = 9;
  const std::vector<float> a_data = RandomSparseData(rng, m * k, 0.2);
  const std::vector<float> b_data = RandomSparseData(rng, k * n, 1.0);

  for (bool transpose_a : {false, true}) {
    const int64_t out_rows = transpose_a ? k : m;
    Tensor a_sparse_leaf = Tensor::FromVector({m, k}, a_data, true);
    Tensor a_dense_leaf = Tensor::FromVector({m, k}, a_data, true);
    Tensor b1 = Tensor::FromVector(
        {transpose_a ? m : k, n},
        std::vector<float>(b_data.begin(),
                           b_data.begin() + (transpose_a ? m : k) * n),
        true);
    Tensor b2 = Tensor::FromVector({transpose_a ? m : k, n},
                                   b1.Data(), true);

    SparseTensor csr = ToSparse(a_sparse_leaf).ToCsr();
    Tensor values = SparseValues(a_sparse_leaf, csr);
    Tensor out_sparse = SpMM(csr, values, b1, transpose_a);
    Tensor out_dense =
        transpose_a
            ? MatMul(Transpose(a_dense_leaf, 0, 1), b2)
            : MatMul(a_dense_leaf, b2);
    ASSERT_EQ(out_sparse.Shape(), (std::vector<int64_t>{out_rows, n}));
    EXPECT_EQ(out_sparse.Data(), out_dense.Data())
        << "forward mismatch, transpose_a=" << transpose_a;

    Tensor seed = Tensor::Rand({out_rows, n}, rng, -1.0f, 1.0f);
    out_sparse.Backward(seed);
    out_dense.Backward(seed);

    // Dense-side grad: bitwise identical.
    EXPECT_EQ(b1.Grad(), b2.Grad())
        << "b grad mismatch, transpose_a=" << transpose_a;
    // Sparse-side grad: equal to the dense grad at stored coordinates,
    // exactly zero off-pattern.
    const auto& ga = a_sparse_leaf.Grad();
    const auto& ga_ref = a_dense_leaf.Grad();
    ASSERT_EQ(ga.size(), ga_ref.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      if (a_data[i] != 0.0f) {
        EXPECT_EQ(ga[i], ga_ref[i]) << "values grad mismatch at " << i;
      } else {
        EXPECT_EQ(ga[i], 0.0f) << "off-pattern grad leaked at " << i;
      }
    }
  }
}

TEST(SparseOpsTest, GatherRowsMatchesManualReference) {
  Rng rng(36);
  const int64_t num = 10;
  const int64_t width = 6;
  Tensor table =
      Tensor::FromVector({num, width}, RandomSparseData(rng, 60, 1.0), true);
  // Duplicates on purpose: the scatter-add order must be deterministic.
  const std::vector<int64_t> indices = {3, 0, 3, 9, 3, 0};
  Tensor out = GatherRows(table, indices);
  ASSERT_EQ(out.Shape(),
            (std::vector<int64_t>{static_cast<int64_t>(indices.size()),
                                  width}));
  for (size_t i = 0; i < indices.size(); ++i) {
    for (int64_t j = 0; j < width; ++j) {
      EXPECT_EQ(out.At({static_cast<int64_t>(i), j}),
                table.At({indices[i], j}));
    }
  }

  Tensor seed = Tensor::Rand(
      {static_cast<int64_t>(indices.size()), width}, rng, -1.0f, 1.0f);
  out.Backward(seed);
  // Reference accumulation in ascending gather-row order — exactly the
  // kernel's contract.
  std::vector<float> expected(static_cast<size_t>(num * width), 0.0f);
  for (size_t i = 0; i < indices.size(); ++i) {
    for (int64_t j = 0; j < width; ++j) {
      expected[static_cast<size_t>(indices[i] * width + j)] +=
          seed.At({static_cast<int64_t>(i), j});
    }
  }
  EXPECT_EQ(table.Grad(), expected);
}

TEST(SparseOpsTest, SparseValuesRoundTripsAndScattersGrad) {
  Rng rng(37);
  const std::vector<float> data = RandomSparseData(rng, 48, 0.3);
  Tensor dense = Tensor::FromVector({6, 8}, data, true);
  SparseTensor pattern = ToSparse(dense);
  Tensor values = SparseValues(dense, pattern);
  ASSERT_EQ(values.Numel(), pattern.Nnz());
  // Gathered in storage order.
  const auto& flat = pattern.FlatIndices();
  for (int64_t e = 0; e < values.Numel(); ++e) {
    EXPECT_EQ(values.At(e), data[static_cast<size_t>(flat[e])]);
  }
  Tensor seed = Tensor::Rand({values.Numel()}, rng, -1.0f, 1.0f);
  values.Backward(seed);
  const auto& grad = dense.Grad();
  int64_t e = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] != 0.0f) {
      EXPECT_EQ(grad[i], seed.At(e++));
    } else {
      EXPECT_EQ(grad[i], 0.0f);
    }
  }
}

TEST(SparseOpsTest, BitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(38);
  const int64_t m = 37;
  const int64_t k = 53;
  const int64_t n = 19;
  const std::vector<float> a_data = RandomSparseData(rng, m * k, 0.15);
  const std::vector<float> b_data = RandomSparseData(rng, k * n, 1.0);
  const std::vector<float> seed_data = RandomSparseData(rng, m * n, 1.0);
  const std::vector<int64_t> indices = {11, 2, 11, 36, 0, 7, 11};

  auto run = [&](int threads) {
    exec::SetThreadCount(threads);
    Tensor a = Tensor::FromVector({m, k}, a_data, true);
    Tensor b = Tensor::FromVector({k, n}, b_data, true);
    SparseTensor csr = ToSparse(a).ToCsr();
    Tensor values = SparseValues(a, csr);
    Tensor out = SpMM(csr, values, b);
    out.Backward(Tensor::FromVector({m, n}, seed_data));

    Tensor table = Tensor::FromVector({m, k}, a_data, true);
    Tensor gathered = GatherRows(table, indices);
    gathered.Backward(Tensor::Full(gathered.Shape(), 0.5f));

    struct Snapshot {
      std::vector<float> out, da, db, gathered, dtable;
    };
    return Snapshot{out.Data(), a.Grad(), b.Grad(), gathered.Data(),
                    table.Grad()};
  };

  const auto one = run(1);
  for (int threads : {2, 8}) {
    const auto multi = run(threads);
    EXPECT_EQ(one.out, multi.out) << threads << " threads";
    EXPECT_EQ(one.da, multi.da) << threads << " threads";
    EXPECT_EQ(one.db, multi.db) << threads << " threads";
    EXPECT_EQ(one.gathered, multi.gathered) << threads << " threads";
    EXPECT_EQ(one.dtable, multi.dtable) << threads << " threads";
  }
}

// -------------------------------------------------------------- dataset --

CrimeDataset SparseTestCity(int64_t days = 64) {
  CrimeGenConfig gen;
  gen.rows = 4;
  gen.cols = 4;
  gen.days = days;
  gen.num_zones = 3;
  gen.category_totals = {300, 700, 350, 400};
  gen.seed = 77;
  return GenerateCrimeData(gen);
}

TEST(SparseDatasetTest, SparseStorageMatchesDenseExactly) {
  // Same underlying tensor, both storage modes.
  EnvGuard dense_env("STHSL_DATA_SPARSE_THRESHOLD", "0");
  CrimeDataset dense = SparseTestCity();
  ASSERT_FALSE(dense.sparse_storage());
  CrimeDataset sparse = [&] {
    EnvGuard sparse_env("STHSL_DATA_SPARSE_THRESHOLD", "1");
    return SparseTestCity();
  }();
  ASSERT_TRUE(sparse.sparse_storage());

  EXPECT_EQ(dense.Nnz(), sparse.Nnz());
  EXPECT_EQ(dense.Density(), sparse.Density());
  for (int64_t c = 0; c < dense.num_categories(); ++c) {
    EXPECT_EQ(dense.CategoryTotal(c), sparse.CategoryTotal(c)) << c;
  }
  for (int64_t r = 0; r < dense.num_regions(); ++r) {
    EXPECT_EQ(dense.DensityDegree(r), sparse.DensityDegree(r)) << r;
  }
  float mean_d, std_d, mean_s, std_s;
  dense.ComputeMoments(&mean_d, &std_d);
  sparse.ComputeMoments(&mean_s, &std_s);
  EXPECT_EQ(mean_d, mean_s);
  EXPECT_EQ(std_d, std_s);
  EXPECT_EQ(dense.WindowInput(20, 7).Data(), sparse.WindowInput(20, 7).Data());
  EXPECT_EQ(dense.TargetDay(33).Data(), sparse.TargetDay(33).Data());
  for (int64_t r = 0; r < dense.num_regions(); ++r) {
    for (int64_t c = 0; c < dense.num_categories(); ++c) {
      EXPECT_EQ(dense.Count(r, 12, c), sparse.Count(r, 12, c));
    }
  }
  // Slicing re-engages the mode decision but never changes values.
  CrimeDataset dslice = dense.SliceDays(10, 30);
  CrimeDataset sslice = sparse.SliceDays(10, 30);
  EXPECT_EQ(dslice.counts().Data(), sslice.counts().Data());
  // CSV bytes are independent of the storage mode.
  ASSERT_TRUE(dense.SaveCsv("/tmp/sparse_test_dense.csv").ok());
  ASSERT_TRUE(sparse.SaveCsv("/tmp/sparse_test_sparse.csv").ok());
  EXPECT_EQ(ReadFileBytes("/tmp/sparse_test_dense.csv"),
            ReadFileBytes("/tmp/sparse_test_sparse.csv"));
  // The lazy dense materialization is value-identical too.
  EXPECT_EQ(dense.counts().Data(), sparse.counts().Data());
}

TEST(SparseDatasetTest, WindowStatsMatchManualCount) {
  CrimeDataset data = SparseTestCity();
  const int64_t window = 7;
  const int64_t t_end = 30;
  int64_t expected = 0;
  for (int64_t r = 0; r < data.num_regions(); ++r) {
    for (int64_t t = t_end - window; t < t_end; ++t) {
      for (int64_t c = 0; c < data.num_categories(); ++c) {
        expected += data.Count(r, t, c) != 0.0f ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(data.WindowNnz(t_end, window), expected);
  const double cells = static_cast<double>(
      data.num_regions() * window * data.num_categories());
  EXPECT_DOUBLE_EQ(data.WindowDensity(t_end, window), expected / cells);

  const WindowDensitySummary summary = SummarizeWindowDensity(data, window);
  EXPECT_EQ(summary.num_windows, data.num_days() - window + 1);
  EXPECT_LE(summary.min_nnz, expected);
  EXPECT_GE(summary.max_nnz, expected);
  EXPECT_GT(summary.mean_density, 0.0);
  EXPECT_LE(summary.mean_density, 1.0);
}

// -------------------------------------------------------------- training --

SthslConfig SparseTrainConfig() {
  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.kernel_size = 3;
  config.global_temporal_layers = 2;
  config.train.window = 7;
  config.train.epochs = 2;
  config.train.max_steps_per_epoch = 4;
  config.train.seed = 11;
  return config;
}

// The whole point of the dataset sparse mode: training consumes windows,
// targets and moments only, and all of them are exact, so the trajectory is
// identical whichever way the tensor is stored.
TEST(SparseTrainingTest, TrajectoryIdenticalAcrossDatasetStorageModes) {
  SthslConfig config = SparseTrainConfig();
  Tensor pred_dense, pred_sparse;
  {
    EnvGuard env("STHSL_DATA_SPARSE_THRESHOLD", "0");
    CrimeDataset data = SparseTestCity();
    ASSERT_FALSE(data.sparse_storage());
    SthslForecaster model(config);
    model.Fit(data, 50);
    pred_dense = model.PredictDay(data, 55);
  }
  {
    EnvGuard env("STHSL_DATA_SPARSE_THRESHOLD", "1");
    CrimeDataset data = SparseTestCity();
    ASSERT_TRUE(data.sparse_storage());
    SthslForecaster model(config);
    model.Fit(data, 50);
    pred_sparse = model.PredictDay(data, 55);
  }
  EXPECT_EQ(pred_dense.Data(), pred_sparse.Data());
}

// Dense/sparse dispatch parity at the hypergraph site, asserted down to
// checkpoint bytes: the same sparse incidence pattern trained through the
// CSR SpMM path and through the masked-dense GEMM path must produce
// byte-identical checkpoints.
TEST(SparseTrainingTest, SparseAndMaskedDensePathsProduceIdenticalCheckpoints) {
  CrimeDataset data = SparseTestCity();
  SthslConfig sparse_cfg = SparseTrainConfig();
  sparse_cfg.hypergraph_density = 0.2f;
  sparse_cfg.sparse_threshold = 1.0f;  // always take the SpMM path
  SthslConfig masked_cfg = sparse_cfg;
  masked_cfg.sparse_threshold = 0.0f;  // always take the masked-dense path

  SthslForecaster sparse_model(sparse_cfg);
  SthslForecaster masked_model(masked_cfg);
  sparse_model.Fit(data, 50);
  masked_model.Fit(data, 50);

  ASSERT_TRUE(
      SaveCheckpoint(*sparse_model.net(), "/tmp/sparse_path_ckpt.bin").ok());
  ASSERT_TRUE(
      SaveCheckpoint(*masked_model.net(), "/tmp/masked_path_ckpt.bin").ok());
  const std::string sparse_bytes = ReadFileBytes("/tmp/sparse_path_ckpt.bin");
  ASSERT_FALSE(sparse_bytes.empty());
  EXPECT_EQ(sparse_bytes, ReadFileBytes("/tmp/masked_path_ckpt.bin"));

  // Fixed-pattern contract: the zero coordinates never came back to life.
  Tensor h = sparse_model.net()->hyperedge_weights();
  int64_t zeros = 0;
  for (float v : h.Data()) zeros += v == 0.0f ? 1 : 0;
  EXPECT_GT(zeros, h.Numel() / 2);  // density 0.2 keeps most entries zero
  // And the predictions agree bitwise as well.
  EXPECT_EQ(sparse_model.PredictDay(data, 55).Data(),
            masked_model.PredictDay(data, 55).Data());
}

}  // namespace
}  // namespace sthsl
