// Exhaustive tests of the fixed-length block codec: the bit-shifting
// pack/unpack kernels, block encode/decode round trips across every code
// length and block tail shape, and the malformed-input error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/error.hpp"
#include "hzccl/util/random.hpp"

namespace hzccl {
namespace {

TEST(CodeLength, MatchesBitWidth) {
  EXPECT_EQ(code_length_for(0), 0);
  EXPECT_EQ(code_length_for(1), 1);
  EXPECT_EQ(code_length_for(2), 2);
  EXPECT_EQ(code_length_for(3), 2);
  EXPECT_EQ(code_length_for(255), 8);
  EXPECT_EQ(code_length_for(256), 9);
  EXPECT_EQ(code_length_for((1u << 31) - 1), 31);
}

TEST(EncodedBlockSize, ConstantBlockIsOneByte) {
  EXPECT_EQ(encoded_block_size(0, 32), 1u);
}

TEST(EncodedBlockSize, MatchesLayoutArithmetic) {
  // c=11, n=32: 1 head + 4 signs + 1 plane of 32 + 3 rem bits -> 12 bytes.
  EXPECT_EQ(encoded_block_size(11, 32), 1u + 4u + 32u + 12u);
  // c=8, n=10: 1 + 2 signs + 10 plane + 0 rem.
  EXPECT_EQ(encoded_block_size(8, 10), 1u + 2u + 10u);
}

// --- pack/unpack sweep over every residual-bit width -------------------------

class PackBitsTest : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(PackBitsTest, RoundTrips) {
  const auto [bits, n] = GetParam();
  Rng rng(static_cast<uint64_t>(bits * 1000 + n));
  std::vector<uint32_t> values(n);
  for (auto& v : values) v = static_cast<uint32_t>(rng.below(1u << bits));

  std::vector<uint8_t> packed(packed_size(n, bits) + 8, 0xCD);
  pack_bits(values.data(), n, bits, packed.data());

  std::vector<uint32_t> decoded(n, 0xFFFFFFFF);
  unpack_bits(packed.data(), n, bits, decoded.data());
  EXPECT_EQ(decoded, values);

  // The packer must not write past packed_size(n, bits).
  for (size_t i = packed_size(n, bits); i < packed.size(); ++i) {
    EXPECT_EQ(packed[i], 0xCD) << "overwrite at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAndTails, PackBitsTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values<size_t>(1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64,
                                                 100, 511, 512)),
    [](const auto& pinfo) {
      return "bits" + std::to_string(std::get<0>(pinfo.param)) + "_n" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(PackBits, RejectsInvalidWidths) {
  uint32_t v[8] = {};
  uint8_t out[8] = {};
  EXPECT_THROW(pack_bits(v, 8, 0, out), Error);
  EXPECT_THROW(pack_bits(v, 8, 8, out), Error);
  EXPECT_THROW(unpack_bits(out, 8, 0, v), Error);
  EXPECT_THROW(unpack_bits(out, 8, 9, v), Error);
}

TEST(PackBits, NamedVariantsAgreeWithDispatch) {
  Rng rng(3);
  uint32_t v[16];
  for (auto& x : v) x = static_cast<uint32_t>(rng.below(1u << 5));
  uint8_t a[16] = {}, b[16] = {};
  pack_bits(v, 16, 5, a);
  pack_bits_5(v, 16, b);
  EXPECT_EQ(std::vector<uint8_t>(a, a + packed_size(16, 5)),
            std::vector<uint8_t>(b, b + packed_size(16, 5)));
}

// --- vector-boundary and byte-straddle regressions ---------------------------
//
// Vectorized variants process 8 (PDEP/PEXT) or 64 (multishift) values per
// iteration; widths 3/5/6/7 straddle byte boundaries inside each group.
// These cases pin the scalar-defined LSB-first layout at every length that
// exercises a partial final vector, on every level the host supports.

/// Independent oracle: bit i*bits+k of the stream is bit k of value i.
std::vector<uint8_t> bitstream_oracle(const std::vector<uint32_t>& values, int bits) {
  std::vector<uint8_t> out(packed_size(values.size(), bits), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    for (int k = 0; k < bits; ++k) {
      const size_t bit = i * static_cast<size_t>(bits) + static_cast<size_t>(k);
      if ((values[i] >> k) & 1u) out[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return out;
}

class PackBitsLevelSweep : public ::testing::Test {
 protected:
  kernels::DispatchLevel prev_ = kernels::active_dispatch_level();
  void TearDown() override { kernels::set_dispatch_level(prev_); }
};

TEST_F(PackBitsLevelSweep, StraddlingWidthsMatchBitstreamOracleAtEveryLevel) {
  // Lengths around the 8- and 64-value vector steps (never a multiple of
  // either) force the scalar tail to finish mid-stream.
  const size_t lengths[] = {1, 3, 5, 9, 11, 13, 17, 23, 57, 63, 65, 66, 71, 123, 129, 509};
  for (const auto level : kernels::supported_levels()) {
    kernels::set_dispatch_level(level);
    for (const int bits : {3, 5, 6, 7}) {
      for (const size_t n : lengths) {
        Rng rng(static_cast<uint64_t>(bits) * 10000 + n);
        std::vector<uint32_t> values(n);
        for (auto& v : values) v = static_cast<uint32_t>(rng.below(1u << bits));
        const std::vector<uint8_t> want = bitstream_oracle(values, bits);

        std::vector<uint8_t> packed(want.size() + 8, 0xCD);
        pack_bits(values.data(), n, bits, packed.data());
        ASSERT_EQ(std::vector<uint8_t>(packed.begin(),
                                       packed.begin() + static_cast<ptrdiff_t>(want.size())),
                  want)
            << "level=" << kernels::level_name(level) << " bits=" << bits << " n=" << n;
        for (size_t i = want.size(); i < packed.size(); ++i) {
          ASSERT_EQ(packed[i], 0xCD) << "overwrite at " << i << " level="
                                     << kernels::level_name(level) << " bits=" << bits
                                     << " n=" << n;
        }

        std::vector<uint32_t> decoded(n, 0xFFFFFFFF);
        unpack_bits(packed.data(), n, bits, decoded.data());
        ASSERT_EQ(decoded, values)
            << "level=" << kernels::level_name(level) << " bits=" << bits << " n=" << n;
      }
    }
  }
}

TEST_F(PackBitsLevelSweep, BlockCodecStraddlingRemainderMatchesAcrossLevels) {
  // Residuals whose code length is 8k + {3,5,6,7} route the remainder plane
  // through the straddling pack widths inside the block codec; the encoded
  // bytes must not depend on the active level.
  for (const int code_len : {3, 5, 11, 14, 21, 23}) {
    Rng rng(static_cast<uint64_t>(code_len));
    const size_t n = 100;  // not a multiple of 8: partial sign/remainder group
    std::vector<int32_t> residuals(n);
    const uint32_t top = 1u << (code_len - 1);
    for (auto& r : residuals) {
      const auto mag = static_cast<int32_t>(top | rng.below(top));
      r = rng.below(2) != 0u ? -mag : mag;
    }
    std::vector<std::vector<uint8_t>> encodings;
    for (const auto level : kernels::supported_levels()) {
      kernels::set_dispatch_level(level);
      std::vector<uint8_t> buf(encoded_block_size(code_len, n) + 8, 0xCD);
      uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
      buf.resize(static_cast<size_t>(end - buf.data()));

      std::vector<int32_t> decoded(n);
      decode_block(buf.data(), buf.data() + buf.size(), n, decoded.data());
      ASSERT_EQ(decoded, residuals)
          << "level=" << kernels::level_name(level) << " code_len=" << code_len;
      encodings.push_back(std::move(buf));
    }
    for (size_t i = 1; i < encodings.size(); ++i) {
      ASSERT_EQ(encodings[i], encodings[0]) << "encoding drifted between levels, code_len="
                                            << code_len;
    }
  }
}

// --- block codec sweep --------------------------------------------------------

// Two 8-byte fields and no padding: gtest names each case after the raw
// bytes of its parameter, and padding bytes hold whatever the stack held.
struct BlockCase {
  int64_t code_len;  // magnitude bit width to exercise
  size_t n;          // block length (incl. ragged tails)
};

class BlockCodecTest : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockCodecTest, RoundTripsSignedResiduals) {
  const auto [code_len, n] = GetParam();
  Rng rng(static_cast<uint64_t>(code_len * 7919 + n));
  std::vector<int32_t> residuals(n);
  for (auto& r : residuals) {
    if (code_len == 0) {
      r = 0;
    } else {
      const auto mag = static_cast<int64_t>(rng.below(1ull << code_len));
      r = static_cast<int32_t>(rng.below(2) ? -mag : mag);
    }
  }
  // Force the block to actually hit the target code length.
  if (code_len > 0) residuals[n / 2] = (1 << (code_len - 1)) | 1;

  std::vector<uint8_t> buf(max_encoded_block_size(n) + 8, 0xEE);
  uint8_t* end = encode_block(residuals.data(), n, buf.data(), buf.data() + buf.size());
  const size_t written = static_cast<size_t>(end - buf.data());
  EXPECT_EQ(written, encoded_block_size(buf[0], n));
  EXPECT_LE(written, max_encoded_block_size(n));
  EXPECT_EQ(peek_block_size(buf.data(), buf.data() + buf.size(), n), written);

  std::vector<int32_t> decoded(n, 12345);
  const uint8_t* read_end = decode_block(buf.data(), buf.data() + written, n, decoded.data());
  EXPECT_EQ(read_end, buf.data() + written);
  EXPECT_EQ(decoded, residuals);
}

std::vector<BlockCase> block_cases() {
  std::vector<BlockCase> cases;
  for (int c : {0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 24, 25, 30, 31}) {
    for (size_t n : {1ul, 3ul, 8ul, 9ul, 24ul, 32ul, 33ul, 100ul, 512ul}) {
      cases.push_back({c, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockCodecTest, ::testing::ValuesIn(block_cases()),
                         [](const auto& pinfo) {
                           return "c" + std::to_string(pinfo.param.code_len) + "_n" +
                                  std::to_string(pinfo.param.n);
                         });

TEST(BlockCodec, AllZeroBlockEncodesToOneByte) {
  const std::vector<int32_t> zeros(32, 0);
  uint8_t buf[8] = {0xAA};
  uint8_t* end = encode_block(zeros.data(), 32, buf, buf + sizeof buf);
  EXPECT_EQ(end - buf, 1);
  EXPECT_EQ(buf[0], 0);
}

TEST(BlockCodec, NegativeZeroMagnitudeEdge) {
  // INT32_MIN has no positive counterpart: it must be rejected upstream; the
  // codec itself handles every other extreme.
  std::vector<int32_t> residuals = {std::numeric_limits<int32_t>::min() + 1,
                                    std::numeric_limits<int32_t>::max()};
  std::vector<uint8_t> buf(max_encoded_block_size(2), 0);
  uint8_t* end = encode_block(residuals.data(), 2, buf.data(), buf.data() + buf.size());
  std::vector<int32_t> decoded(2);
  decode_block(buf.data(), end, 2, decoded.data());
  EXPECT_EQ(decoded, residuals);
}

TEST(BlockCodec, DecodeRejectsTruncation) {
  std::vector<int32_t> residuals(32, 1000);
  std::vector<uint8_t> buf(max_encoded_block_size(32), 0);
  uint8_t* end = encode_block(residuals.data(), 32, buf.data(), buf.data() + buf.size());
  const size_t size = static_cast<size_t>(end - buf.data());
  int32_t out[32];
  EXPECT_THROW(decode_block(buf.data(), buf.data() + size - 1, 32, out), FormatError);
  EXPECT_THROW(decode_block(buf.data(), buf.data(), 32, out), FormatError);
}

TEST(BlockCodec, DecodeRejectsBadCodeLength) {
  uint8_t buf[64] = {};
  buf[0] = 33;  // > kMaxCodeLength
  int32_t out[8];
  EXPECT_THROW(decode_block(buf, buf + sizeof buf, 8, out), FormatError);
  EXPECT_THROW(peek_block_size(buf, buf + sizeof buf, 8), FormatError);
}

TEST(BlockCodec, PeekRejectsTruncatedBlock) {
  std::vector<int32_t> residuals(32, 77);
  std::vector<uint8_t> buf(max_encoded_block_size(32), 0);
  uint8_t* end = encode_block(residuals.data(), 32, buf.data(), buf.data() + buf.size());
  EXPECT_THROW(peek_block_size(buf.data(), end - 3, 32), FormatError);
}

TEST(BlockCodec, OversizedBlockRejected) {
  std::vector<int32_t> residuals(513, 0);
  std::vector<uint8_t> buf(4096, 0);
  EXPECT_THROW(encode_block(residuals.data(), 513, buf.data(), buf.data() + buf.size()), Error);
}

}  // namespace
}  // namespace hzccl
