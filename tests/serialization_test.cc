// Tests for model checkpointing: exact round-trip, strict validation of
// architecture mismatches, corruption handling.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/sthsl_model.h"
#include "nn/layers.h"
#include "nn/serialization.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace sthsl {
namespace {

const char* kPath = "/tmp/sthsl_checkpoint_test.bin";

TEST(SerializationTest, RoundTripRestoresExactValues) {
  Rng rng(1);
  Linear original(4, 3, rng);
  ASSERT_TRUE(SaveCheckpoint(original, kPath).ok());

  Rng rng2(999);  // different init
  Linear restored(4, 3, rng2);
  ASSERT_NE(restored.Parameters()[0].Data(),
            original.Parameters()[0].Data());
  ASSERT_TRUE(LoadCheckpoint(restored, kPath).ok());
  EXPECT_EQ(restored.Parameters()[0].Data(),
            original.Parameters()[0].Data());
  EXPECT_EQ(restored.Parameters()[1].Data(),
            original.Parameters()[1].Data());
  std::remove(kPath);
}

TEST(SerializationTest, NestedModuleRoundTrip) {
  Rng rng(2);
  GruCell original(3, 5, rng);
  ASSERT_TRUE(SaveCheckpoint(original, kPath).ok());
  Rng rng2(3);
  GruCell restored(3, 5, rng2);
  ASSERT_TRUE(LoadCheckpoint(restored, kPath).ok());
  // Same forward output after restore.
  Tensor x = Tensor::Ones({2, 3});
  Tensor h = Tensor::Zeros({2, 5});
  EXPECT_EQ(original.Forward(x, h).Data(), restored.Forward(x, h).Data());
  std::remove(kPath);
}

TEST(SerializationTest, SthslNetRoundTripPreservesPredictions) {
  Rng rng(4);
  SthslConfig config;
  config.dim = 4;
  config.num_hyperedges = 8;
  config.train.window = 7;
  SthslNet original(config, 3, 3, 2, 0.1f, 0.9f, rng);
  ASSERT_TRUE(SaveCheckpoint(original, kPath).ok());

  Rng rng2(5);
  SthslNet restored(config, 3, 3, 2, 0.1f, 0.9f, rng2);
  ASSERT_TRUE(LoadCheckpoint(restored, kPath).ok());
  Rng data_rng(6);
  Tensor window = Tensor::Rand({9, 7, 2}, data_rng, 0.0f, 2.0f);
  NoGradGuard no_grad;
  EXPECT_EQ(original.Forward(window, false).prediction.Data(),
            restored.Forward(window, false).prediction.Data());
  std::remove(kPath);
}

TEST(SerializationTest, RejectsArchitectureMismatch) {
  Rng rng(7);
  Linear small(4, 3, rng);
  ASSERT_TRUE(SaveCheckpoint(small, kPath).ok());

  Linear different_shape(4, 5, rng);
  Status wrong_shape = LoadCheckpoint(different_shape, kPath);
  EXPECT_FALSE(wrong_shape.ok());

  GruCell different_arch(2, 2, rng);
  Status wrong_count = LoadCheckpoint(different_arch, kPath);
  EXPECT_FALSE(wrong_count.ok());
  EXPECT_EQ(wrong_count.code(), Status::Code::kFailedPrecondition);
  std::remove(kPath);
}

TEST(SerializationTest, ShapeMismatchErrorNamesParameterAndShapes) {
  Rng rng(13);
  Linear saved(4, 3, rng);  // weight (4, 3), 12 elements
  ASSERT_TRUE(SaveCheckpoint(saved, kPath).ok());

  Linear wider(4, 5, rng);  // weight (4, 5), 20 elements
  Status status = LoadCheckpoint(wider, kPath);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  // The message must identify the offending parameter and both shapes with
  // their element counts so an architecture-flag mismatch is diagnosable
  // from the error alone.
  EXPECT_NE(status.message().find("weight"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("[4, 5]"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("[4, 3]"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("20 elements"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("12 elements"), std::string::npos)
      << status.message();
  std::remove(kPath);
}

TEST(SerializationTest, RejectsCorruptFile) {
  {
    std::ofstream file(kPath, std::ios::binary);
    file << "not a checkpoint at all";
  }
  Rng rng(8);
  Linear layer(2, 2, rng);
  Status status = LoadCheckpoint(layer, kPath);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  std::remove(kPath);
}

TEST(SerializationTest, TruncatedFileAtEveryPrefixReturnsError) {
  Rng rng(10);
  Linear layer(4, 3, rng);
  ASSERT_TRUE(SaveCheckpoint(layer, kPath).ok());
  std::string full;
  {
    std::ifstream in(kPath, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 0u);

  // Loading any strict prefix of a valid checkpoint must fail cleanly —
  // never crash, never silently succeed.
  for (size_t len = 0; len < full.size(); ++len) {
    {
      std::ofstream out(kPath, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(len));
    }
    Rng rng2(11);
    Linear target(4, 3, rng2);
    EXPECT_FALSE(LoadCheckpoint(target, kPath).ok())
        << "truncated prefix of " << len << " bytes was accepted";
  }
  std::remove(kPath);
}

TEST(SerializationTest, GarbageSizeFieldsReturnErrorInsteadOfCrashing) {
  // Valid magic followed by a parameter whose shape claims ~10^18 elements:
  // the loader must reject the size instead of attempting the allocation.
  {
    std::ofstream out(kPath, std::ios::binary | std::ios::trunc);
    out.write("STHSLCK1", 8);
    auto write_u64 = [&out](uint64_t v) {
      unsigned char bytes[8];
      for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
      }
      out.write(reinterpret_cast<const char*>(bytes), 8);
    };
    write_u64(1);  // one parameter
    write_u64(6);  // name length
    out.write("weight", 6);
    write_u64(2);                      // rank
    write_u64(1000000000ull);          // extent 0
    write_u64(1000000000ull);          // extent 1 -> 10^18 elements claimed
  }
  Rng rng(12);
  Linear layer(4, 3, rng);
  Status status = LoadCheckpoint(layer, kPath);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);

  // Same with an absurd parameter count and random tail bytes.
  {
    std::ofstream out(kPath, std::ios::binary | std::ios::trunc);
    out.write("STHSLCK1", 8);
    const std::string garbage(64, '\xff');
    out.write(garbage.data(),
              static_cast<std::streamsize>(garbage.size()));
  }
  status = LoadCheckpoint(layer, kPath);
  EXPECT_FALSE(status.ok());
  std::remove(kPath);
}

TEST(SerializationTest, MissingFileIsIoError) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  Status status = LoadCheckpoint(layer, "/tmp/definitely_absent_ckpt.bin");
  EXPECT_EQ(status.code(), Status::Code::kIoError);
}

}  // namespace
}  // namespace sthsl
