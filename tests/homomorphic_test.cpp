// hZ-dynamic tests: the homomorphism property (the paper's central claim),
// algebraic laws (commutativity, associativity), equivalence with the static
// pipeline, pipeline-selection behaviour per dataset, and overflow guards.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/util/threading.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_static.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

CompressedBuffer compress(const std::vector<float>& data, double eb, uint32_t block_len = 32) {
  FzParams p;
  p.abs_error_bound = eb;
  p.block_len = block_len;
  return fz_compress(data, p);
}

/// The exact reference for the homomorphism: the decompressed operands'
/// float-exact sum (both operands are multiples of 2eb, so their sum is
/// representable with no extra rounding in double).
std::vector<float> decompressed_sum(const CompressedBuffer& a, const CompressedBuffer& b) {
  const std::vector<float> da = fz_decompress(a);
  const std::vector<float> db = fz_decompress(b);
  std::vector<float> s(da.size());
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<float>(static_cast<double>(da[i]) + db[i]);
  }
  return s;
}

class HzDatasetTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(HzDatasetTest, HomomorphicSumMatchesDecompressedSum) {
  const DatasetId id = GetParam();
  const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);

  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer b = compress(f1, eb);
  HzPipelineStats stats;
  const CompressedBuffer sum = hz_add(a, b, &stats);

  // §III-B4: no quantization happens during the homomorphic operation, so
  // the result decompresses to exactly the sum of the operands'
  // reconstructions — up to one float rounding of each operand's
  // reconstruction, which matters under cancellation (the tolerance scales
  // with the operand magnitudes, not the sum).
  const std::vector<float> got = fz_decompress(sum);
  const std::vector<float> want = decompressed_sum(a, b);
  const std::vector<float> da = fz_decompress(a);
  const std::vector<float> db = fz_decompress(b);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const double ulp = 1.2e-7 * (std::abs(da[i]) + std::abs(db[i]) + std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], ulp + 1e-30) << dataset_name(id) << " at " << i;
  }
  EXPECT_GT(stats.blocks(), 0u);
}

TEST_P(HzDatasetTest, NoErrorBeyondOperandsBounds) {
  // Triangle inequality: |(x+y) - (x'+y')| <= 2eb when |x-x'|,|y-y'| <= eb.
  const DatasetId id = GetParam();
  const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);

  const CompressedBuffer sum = hz_add(compress(f0, eb), compress(f1, eb));
  const std::vector<float> got = fz_decompress(sum);
  for (size_t i = 0; i < got.size(); ++i) {
    const double exact = static_cast<double>(f0[i]) + f1[i];
    ASSERT_LE(std::abs(got[i] - exact), 2.0 * eb * (1.0 + 1e-5));
  }
}

TEST_P(HzDatasetTest, DynamicAndStaticPipelinesProduceIdenticalBytes) {
  // The fixed-length encoding is canonical, so the lightweight dispatch must
  // be a pure optimization: identical output, cheaper path.
  const DatasetId id = GetParam();
  const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer b = compress(f1, eb);
  EXPECT_EQ(hz_add(a, b).bytes, hz_add_static(a, b).bytes) << dataset_name(id);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, HzDatasetTest,
                         ::testing::ValuesIn(std::vector<DatasetId>(all_datasets().begin(),
                                                                    all_datasets().end())),
                         [](const auto& pinfo) { return dataset_slug(pinfo.param); });

TEST(HzDynamic, Commutes) {
  const std::vector<float> f0 = generate_field(DatasetId::kNyx, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kNyx, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer b = compress(f1, eb);
  EXPECT_EQ(hz_add(a, b).bytes, hz_add(b, a).bytes);
}

TEST(HzDynamic, Associates) {
  const std::vector<float> f0 = generate_field(DatasetId::kHurricane, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kHurricane, Scale::kTiny, 1);
  const std::vector<float> f2 = generate_field(DatasetId::kHurricane, Scale::kTiny, 2);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer b = compress(f1, eb);
  const CompressedBuffer c = compress(f2, eb);
  EXPECT_EQ(hz_add(hz_add(a, b), c).bytes, hz_add(a, hz_add(b, c)).bytes);
}

TEST(HzDynamic, AddingZeroFieldIsIdentityOnReconstruction) {
  const std::vector<float> f0 = generate_field(DatasetId::kCesmAtm, Scale::kTiny, 0);
  const std::vector<float> zeros(f0.size(), 0.0f);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  const CompressedBuffer z = compress(zeros, eb);
  const CompressedBuffer sum = hz_add(a, z);
  EXPECT_EQ(fz_decompress(sum), fz_decompress(a));
  // And the zero operand makes every block take a copy pipeline (2/3) or the
  // both-constant pipeline (1) — never the expensive pipeline 4.
  HzPipelineStats stats;
  (void)hz_add(a, z, &stats);
  EXPECT_EQ(stats.p4, 0u);
}

TEST(HzDynamic, PipelineCountsCoverEveryBlock) {
  const std::vector<float> f0 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 0);
  const std::vector<float> f1 = generate_field(DatasetId::kRtmSim1, Scale::kTiny, 1);
  const double eb = abs_bound_from_rel(f0, 1e-3);
  const CompressedBuffer a = compress(f0, eb);
  HzPipelineStats stats;
  (void)hz_add(a, compress(f1, eb), &stats);

  const FzView v = parse_fz(a.bytes);
  size_t expected_blocks = 0;
  for (uint32_t c = 0; c < v.num_chunks(); ++c) {
    const Range r = chunk_range(v.num_elements(), static_cast<int>(v.num_chunks()),
                                static_cast<int>(c));
    expected_blocks += (r.size() + v.block_len() - 1) / v.block_len();
  }
  EXPECT_EQ(stats.blocks(), expected_blocks);
  EXPECT_NEAR(stats.percent(1) + stats.percent(2) + stats.percent(3) + stats.percent(4), 100.0,
              1e-9);
}

TEST(HzDynamic, PipelineMixTracksDataSmoothness) {
  // Table V's qualitative pattern: a zero-dominated pair is pipeline-1
  // heavy; a rough pair leans on pipeline 4.
  const double rel = 1e-3;
  auto mix = [&](DatasetId id) {
    const auto f0 = generate_field(id, Scale::kTiny, 0);
    const auto f1 = generate_field(id, Scale::kTiny, 1);
    const double eb = abs_bound_from_rel(f0, rel);
    HzPipelineStats stats;
    (void)hz_add(compress(f0, eb), compress(f1, eb), &stats);
    return stats;
  };
  const HzPipelineStats early = mix(DatasetId::kRtmSim1);
  const HzPipelineStats cesm = mix(DatasetId::kCesmAtm);
  EXPECT_GT(early.percent(1), 20.0);
  EXPECT_GT(cesm.percent(4), early.percent(4));
  // NYX's wide voids make it the pipeline-1 champion (paper: 99.4%).
  EXPECT_GT(mix(DatasetId::kNyx).percent(1), 70.0);
}

TEST(HzDynamic, ConstantPairsCollapseToOneByteBlocks) {
  const std::vector<float> c1(4096, 1.0f);
  const std::vector<float> c2(4096, 2.0f);
  const CompressedBuffer a = compress(c1, 1e-3);
  const CompressedBuffer b = compress(c2, 1e-3);
  HzPipelineStats stats;
  const CompressedBuffer sum = hz_add(a, b, &stats);
  EXPECT_EQ(stats.p1, stats.blocks());
  const std::vector<float> got = fz_decompress(sum);
  for (float v : got) ASSERT_NEAR(v, 3.0f, 2e-3);
}

TEST(HzDynamic, LayoutMismatchThrows) {
  const std::vector<float> f(1000, 1.0f);
  const CompressedBuffer a = compress(f, 1e-3, 32);
  EXPECT_THROW((void)hz_add(a, compress(f, 1e-3, 64)), LayoutMismatchError);     // block length
  EXPECT_THROW((void)hz_add(a, compress(f, 1e-4, 32)), LayoutMismatchError);     // error bound
  const std::vector<float> g(999, 1.0f);
  EXPECT_THROW((void)hz_add(a, compress(g, 1e-3, 32)), LayoutMismatchError);     // element count
  FzParams p;
  p.abs_error_bound = 1e-3;
  p.num_chunks = 2;
  EXPECT_THROW((void)hz_add(a, fz_compress(f, p)), LayoutMismatchError);         // chunk count
}

TEST(HzDynamic, SingleAddOfFreshStreamsCannotOverflow) {
  // The 30-bit quantization guard exists precisely so that one homomorphic
  // addition of two compressor outputs always fits the 31-bit residual
  // domain: the extreme case must succeed, not throw.
  const double eb = 0.5;  // quantum 1.0: integers quantize to themselves
  const float big = 1073741312.0f;  // 2^30 - 512, exactly representable
  std::vector<float> f = {0.0f, big};
  const CompressedBuffer a = compress(f, eb, 32);
  const CompressedBuffer sum = hz_add(a, a);
  const std::vector<float> got = fz_decompress(sum);
  EXPECT_FLOAT_EQ(got[1], 2.0f * big);
}

TEST(HzDynamic, ChainedAdditionsOverflowIsDetected) {
  // Chained reductions *can* leave the residual domain; the guard must turn
  // that into a typed error instead of silent wraparound.
  std::vector<float> f = {0.0f, 1e8f};
  const double eb = 0.5;
  CompressedBuffer acc = compress(f, eb, 32);
  bool threw = false;
  try {
    for (int i = 0; i < 40; ++i) acc = hz_add(acc, acc);  // doubles each time
  } catch (const HomomorphicOverflowError&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(HzStatic, MatchesDynamicOnEmptyInput) {
  FzParams p;
  const CompressedBuffer e = fz_compress({}, p);
  EXPECT_EQ(hz_add(e, e).bytes, hz_add_static(e, e).bytes);
}

TEST(HzPipelineStatsTest, PercentValidation) {
  HzPipelineStats s;
  EXPECT_EQ(s.percent(1), 0.0);  // empty stats
  s.p1 = 3;
  s.p4 = 1;
  EXPECT_DOUBLE_EQ(s.percent(1), 75.0);
  EXPECT_DOUBLE_EQ(s.percent(4), 25.0);
  s.raw = 4;  // index 0 = the raw-fallback share
  EXPECT_DOUBLE_EQ(s.percent(0), 50.0);
  EXPECT_THROW(s.percent(-1), Error);
  EXPECT_THROW(s.percent(5), Error);
}

}  // namespace
}  // namespace hzccl
