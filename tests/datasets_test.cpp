// Tests pinning the dataset generators' statistical contracts (which the
// compression experiments depend on) and the .f32/PGM I/O paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "hzccl/datasets/fields.hpp"
#include "hzccl/datasets/io.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

TEST(Fields, DeterministicInSeed) {
  const Dims dims{32, 32, 8};
  const auto a = nyx_field(dims, 5);
  const auto b = nyx_field(dims, 5);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  const auto c = nyx_field(dims, 6);
  EXPECT_NE(a, c);
}

TEST(Fields, RtmSim2IsZeroDominated) {
  // Both RTM settings are quiet-dominated; Setting 2 the more so (its
  // pipeline-1/3-dominant adds and top compression ratio depend on it).
  const auto f = rtm_sim2_field({64, 64, 32}, 3);
  EXPECT_GT(zero_fraction(f), 0.7);
}

TEST(Fields, RtmSim1IsQuietDominatedWithStrongSource) {
  // Setting 1's signature: most of the volume below-quantum while the
  // near-source amplitude dominates the value range (so the relative bound
  // quantizes the weak fronts coarsely).
  const auto f = rtm_sim1_field({64, 64, 16}, 3);
  EXPECT_GT(zero_fraction(f), 0.5);
  const ValueRange r = value_range(f);
  EXPECT_GT(r.max, 5.0);  // source blob
}

TEST(Fields, NyxIsPositiveWithLargeDynamicRange) {
  const auto f = nyx_field({48, 48, 48}, 9);
  const ValueRange r = value_range(f);
  EXPECT_GT(r.min, 0.0);
  EXPECT_GT(r.max / std::max(r.min, 1e-12), 100.0);  // log-normal spread
}

TEST(Fields, CesmIsLessCompressibleThanRtm) {
  // The contract the experiments rely on (Table III ordering at equal REL):
  // CESM-ATM carries more small-scale energy relative to its range than the
  // quiet-dominated RTM wavefields, so it compresses measurably worse.
  auto increment_energy = [](const std::vector<float>& f) {
    double e = 0.0;
    for (size_t i = 1; i < f.size(); ++i) {
      const double d = static_cast<double>(f[i]) - f[i - 1];
      e += d * d;
    }
    const ValueRange r = value_range(f);
    // Mean-square x-increment in units of the range: what the REL-bounded
    // quantizer + Lorenzo predictor actually sees.
    return std::sqrt(e / static_cast<double>(f.size())) / r.span();
  };
  const Dims dims{128, 128, 1};
  EXPECT_GT(increment_energy(cesm_atm_field(dims, 2)),
            increment_energy(rtm_sim1_field(dims, 2)));
}

TEST(Fields, HurricaneHasVortexPeak) {
  const auto f = hurricane_field({96, 96, 8}, 4);
  const ValueRange r = value_range(f);
  EXPECT_GT(r.max, 30.0);  // eyewall wind dominates turbulence
}

TEST(Fields, SmoothNoiseIsNormalized) {
  const auto f = smooth_noise_field({64, 64, 4}, 17, 4, 2);
  double sum = 0.0, sq = 0.0;
  for (float v : f) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(f.size());
  EXPECT_NEAR(sum / n, 0.0, 1e-3);
  EXPECT_NEAR(sq / n, 1.0, 1e-2);
}

TEST(Fields, SmoothingIncreasesCorrelation) {
  const Dims dims{256, 16, 1};
  const auto rough = smooth_noise_field(dims, 3, 1, 1);
  const auto smooth = smooth_noise_field(dims, 3, 8, 3);
  auto lag1 = [](const std::vector<float>& f) {
    double c = 0.0;
    for (size_t i = 1; i < f.size(); ++i) c += static_cast<double>(f[i]) * f[i - 1];
    return c / static_cast<double>(f.size() - 1);
  };
  EXPECT_GT(lag1(smooth), lag1(rough));
}

// --- registry ---------------------------------------------------------------

TEST(Registry, AllDatasetsEnumerated) {
  EXPECT_EQ(all_datasets().size(), 5u);
}

TEST(Registry, SlugParsingRoundTrips) {
  for (DatasetId id : all_datasets()) {
    EXPECT_EQ(parse_dataset(dataset_slug(id)), id);
    EXPECT_EQ(parse_dataset(dataset_name(id)), id);
  }
  EXPECT_THROW(parse_dataset("not_a_dataset"), Error);
}

TEST(Registry, DimsMatchGeneratedSize) {
  for (DatasetId id : all_datasets()) {
    const Dims dims = dataset_dims(id, Scale::kTiny);
    const auto f = generate_field(id, Scale::kTiny, 0);
    EXPECT_EQ(f.size(), dims.count()) << dataset_name(id);
  }
}

TEST(Registry, CesmIsTwoDimensional) {
  EXPECT_EQ(dataset_dims(DatasetId::kCesmAtm, Scale::kSmall).nz, 1u);
}

TEST(Registry, FieldsDifferByIndex) {
  const auto f0 = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  const auto f1 = generate_field(DatasetId::kHurricane, Scale::kTiny, 1);
  EXPECT_NE(f0, f1);
}

TEST(Registry, BatchGenerationMatchesSingles) {
  const auto batch = generate_fields(DatasetId::kNyx, Scale::kTiny, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1], generate_field(DatasetId::kNyx, Scale::kTiny, 1));
}

// --- correlated families ------------------------------------------------------

TEST(CorrelatedFields, RtmMembersShareActivityStructure) {
  // Members must be exactly zero in the same places (shared gate/support) —
  // the property that keeps deep homomorphic reductions constant-block-rich.
  const auto m0 = generate_correlated_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  const auto m1 = generate_correlated_field(DatasetId::kRtmSim1, Scale::kTiny, 1);
  ASSERT_EQ(m0.size(), m1.size());
  size_t mismatched_support = 0;
  for (size_t i = 0; i < m0.size(); ++i) {
    if ((m0[i] == 0.0f) != (m1[i] == 0.0f)) ++mismatched_support;
  }
  // The smoothstep gate edge allows a sliver of disagreement, nothing more.
  EXPECT_LT(static_cast<double>(mismatched_support) / static_cast<double>(m0.size()), 0.02);
  EXPECT_NE(m0, m1);  // texture differs
}

TEST(CorrelatedFields, Sim2VariantsDifferInTextureOnly) {
  const auto m0 = generate_correlated_field(DatasetId::kRtmSim2, Scale::kTiny, 0);
  const auto m3 = generate_correlated_field(DatasetId::kRtmSim2, Scale::kTiny, 3);
  EXPECT_EQ(m0.size(), m3.size());
  EXPECT_NE(m0, m3);
}

TEST(CorrelatedFields, NonRtmFallbackPreservesSupportExactly) {
  const auto m0 = generate_correlated_field(DatasetId::kNyx, Scale::kTiny, 0);
  const auto m2 = generate_correlated_field(DatasetId::kNyx, Scale::kTiny, 2);
  ASSERT_EQ(m0.size(), m2.size());
  for (size_t i = 0; i < m0.size(); ++i) {
    ASSERT_EQ(m0[i] == 0.0f, m2[i] == 0.0f);
  }
}

TEST(CorrelatedFields, DeterministicInMember) {
  EXPECT_EQ(generate_correlated_field(DatasetId::kRtmSim1, Scale::kTiny, 5),
            generate_correlated_field(DatasetId::kRtmSim1, Scale::kTiny, 5));
}

// --- io ----------------------------------------------------------------------

class IoTest : public ::testing::Test {
 protected:
  std::filesystem::path tmp_ = std::filesystem::temp_directory_path() / "hzccl_io_test";
  void SetUp() override { std::filesystem::create_directories(tmp_); }
  void TearDown() override { std::filesystem::remove_all(tmp_); }
};

TEST_F(IoTest, F32RoundTrip) {
  const std::vector<float> data = {1.5f, -2.25f, 0.0f, 1e30f};
  const std::string path = (tmp_ / "x.f32").string();
  store_f32(path, data);
  EXPECT_EQ(load_f32(path), data);
  EXPECT_EQ(load_f32(path, 2), (std::vector<float>{1.5f, -2.25f}));
}

TEST_F(IoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_f32((tmp_ / "missing.f32").string()), Error);
}

TEST_F(IoTest, PgmWritesValidHeader) {
  const std::vector<float> img = {0.0f, 1.0f, 2.0f, 3.0f};
  const std::string path = (tmp_ / "img.pgm").string();
  store_pgm(path, img, 2, 2);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  size_t w, h;
  int maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(maxval, 255);
}

TEST_F(IoTest, PgmDimsMismatchThrows) {
  const std::vector<float> img = {0.0f, 1.0f};
  EXPECT_THROW(store_pgm((tmp_ / "bad.pgm").string(), img, 3, 3), Error);
}

}  // namespace
}  // namespace hzccl
