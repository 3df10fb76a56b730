// ompSZp baseline compressor tests: round trips, the zero-block-omission
// feature cuSZp is known for, the error-bound invariant, and cross-checks
// against fZ-light (the Table III relationships).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

struct SzpCase {
  DatasetId dataset;
  double rel_bound;
  uint32_t block_len;
};

class SzpSweepTest : public ::testing::TestWithParam<SzpCase> {};

TEST_P(SzpSweepTest, ErrorBoundHolds) {
  const SzpCase c = GetParam();
  const std::vector<float> data = generate_field(c.dataset, Scale::kTiny, 0);

  SzpParams params;
  params.abs_error_bound = abs_bound_from_rel(data, c.rel_bound);
  params.block_len = c.block_len;

  const CompressedBuffer compressed = szp_compress(data, params);
  const std::vector<float> decoded = szp_decompress(compressed);
  ASSERT_EQ(decoded.size(), data.size());
  const ErrorStats stats = compare(data, decoded);
  const double ulp_slack =
      1.2e-7 * std::max(std::abs(stats.min), std::abs(stats.max));
  EXPECT_LE(stats.max_abs_err, params.abs_error_bound * (1.0 + 1e-5) + ulp_slack);
}

std::vector<SzpCase> szp_cases() {
  std::vector<SzpCase> cases;
  for (DatasetId id : all_datasets()) {
    for (double rel : {1e-1, 1e-3}) cases.push_back({id, rel, 32});
  }
  for (uint32_t bl : {1u, 7u, 64u, 512u}) cases.push_back({DatasetId::kNyx, 1e-3, bl});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DatasetSweep, SzpSweepTest, ::testing::ValuesIn(szp_cases()),
                         [](const auto& pinfo) {
                           const SzpCase& c = pinfo.param;
                           return dataset_slug(c.dataset) + "_rel" +
                                  std::to_string(static_cast<int>(-std::log10(c.rel_bound))) +
                                  "_bl" + std::to_string(c.block_len);
                         });

TEST(OmpSzp, ZeroBlocksAreOmittedEntirely) {
  // cuSZp's signature feature: an all-zero input stores only metadata.
  const std::vector<float> zeros(32 * 1024, 0.0f);
  SzpParams params;
  params.abs_error_bound = 1e-4;
  const CompressedBuffer compressed = szp_compress(zeros, params);
  const SzpView v = parse_szp(compressed.bytes);
  EXPECT_EQ(v.payload.size(), 0u);
  for (uint8_t m : v.block_meta) EXPECT_EQ(m, kSzpZeroBlock);
  const std::vector<float> decoded = szp_decompress(compressed);
  for (float x : decoded) ASSERT_EQ(x, 0.0f);
}

TEST(OmpSzp, PerBlockOutlierCostsRatioVersusFzLight) {
  // Table III's mechanism: ompSZp stores a 4-byte outlier per *block*,
  // fZ-light per *chunk*, so on dense non-constant data fZ-light compresses
  // tighter at the same bound.  CESM-ATM is where the paper's gap is widest
  // (12.61 vs 6.10 at REL 1e-3).
  const std::vector<float> data = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(data, 1e-3);

  SzpParams sp;
  sp.abs_error_bound = eb;
  FzParams fp;
  fp.abs_error_bound = eb;

  const size_t szp_bytes = szp_compress(data, sp).size_bytes();
  const size_t fz_bytes = fz_compress(data, fp).size_bytes();
  EXPECT_LT(fz_bytes, szp_bytes);
}

TEST(OmpSzp, ZeroDominatedDataCanFavorSzp) {
  // The paper's Sim.Set.1 @ 1e-2 exception: zero-block omission can beat
  // fZ-light when the field is mostly exact zeros.  We only require the two
  // to be within a small factor — direction depends on the zero fraction.
  const std::vector<float> data = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(data, 1e-2);
  SzpParams sp;
  sp.abs_error_bound = eb;
  FzParams fp;
  fp.abs_error_bound = eb;
  const double szp_bytes = static_cast<double>(szp_compress(data, sp).size_bytes());
  const double fz_bytes = static_cast<double>(fz_compress(data, fp).size_bytes());
  EXPECT_LT(szp_bytes / fz_bytes, 2.0);
  EXPECT_GT(szp_bytes / fz_bytes, 0.5);
}

TEST(OmpSzp, QualityMatchesFzLightClosely) {
  // Both quantize identically; NRMSE must agree to within a few percent.
  const std::vector<float> data = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 0);
  const double eb = abs_bound_from_rel(data, 1e-3);
  SzpParams sp;
  sp.abs_error_bound = eb;
  FzParams fp;
  fp.abs_error_bound = eb;

  const ErrorStats szp = compare(data, szp_decompress(szp_compress(data, sp)));
  const ErrorStats fz = compare(data, fz_decompress(fz_compress(data, fp)));
  EXPECT_NEAR(szp.nrmse, fz.nrmse, 0.15 * std::max(szp.nrmse, fz.nrmse));
}

TEST(OmpSzp, StreamIndependentOfThreadCount) {
  const std::vector<float> data = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  SzpParams p1, p4;
  p1.abs_error_bound = p4.abs_error_bound = 1e-3;
  p1.num_threads = 1;
  p4.num_threads = 4;
  EXPECT_EQ(szp_compress(data, p1).bytes, szp_compress(data, p4).bytes);
}

TEST(OmpSzp, EmptyInput) {
  SzpParams params;
  const CompressedBuffer compressed = szp_compress({}, params);
  EXPECT_TRUE(szp_decompress(compressed).empty());
}

TEST(OmpSzp, RejectsBadParameters) {
  SzpParams params;
  params.abs_error_bound = 0.0;
  EXPECT_THROW(szp_compress(std::vector<float>{1.0f}, params), Error);
  params.abs_error_bound = 1e-3;
  params.block_len = 0;
  EXPECT_THROW(szp_compress(std::vector<float>{1.0f}, params), Error);
}

TEST(OmpSzp, RejectsFzStream) {
  const std::vector<float> data(100, 1.0f);
  FzParams fp;
  const CompressedBuffer fz = fz_compress(data, fp);
  EXPECT_THROW((void)parse_szp(fz.bytes), FormatError);
}

TEST(OmpSzp, CorruptMetadataRejected) {
  const std::vector<float> data = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  SzpParams params;
  params.abs_error_bound = abs_bound_from_rel(data, 1e-3);
  CompressedBuffer s = szp_compress(data, params);
  s.bytes[sizeof(FzHeader)] = 77;  // invalid code length (not 0xFF, > 31)
  EXPECT_THROW((void)parse_szp(s.bytes), FormatError);
}

TEST(OmpSzp, TruncatedPayloadRejected) {
  const std::vector<float> data = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  SzpParams params;
  params.abs_error_bound = abs_bound_from_rel(data, 1e-3);
  CompressedBuffer s = szp_compress(data, params);
  s.bytes.resize(s.bytes.size() - 3);
  std::vector<float> out(data.size());
  EXPECT_THROW(szp_decompress(s, out), FormatError);
}

}  // namespace
}  // namespace hzccl
