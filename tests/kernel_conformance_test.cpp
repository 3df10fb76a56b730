// Kernel-conformance tier (ctest -L kernels): every registered dispatch
// level must be byte-identical to the scalar oracle.
//
// The scalar table is the reference implementation of the wire format; the
// vectorized tables are only allowed to be faster, never different.  Each
// differential here sweeps every supported level above scalar against the
// scalar table directly (no global state involved), then the dataset-level
// sweep repeats whole-pipeline compress / homomorphic-add / decompress runs
// with the *active* level forced, proving the dispatch seam leaks nothing
// into the format.
//
// Randomness comes from simmpi's counter-based fault_mix, so a failure
// reproduces from the test name alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/compressor/fz_light.hpp"
#include "hzccl/compressor/omp_szp.hpp"
#include "hzccl/compressor/szx_like.hpp"
#include "hzccl/datasets/registry.hpp"
#include "hzccl/homomorphic/hz_dynamic.hpp"
#include "hzccl/homomorphic/hz_ops.hpp"
#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/simmpi/faults.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/crc32.hpp"
#include "hzccl/util/error.hpp"

namespace hzccl {
namespace {

using kernels::DispatchLevel;
using kernels::KernelTable;

constexpr uint8_t kGuardByte = 0xCD;

/// Pure-function PRNG view (fuzz_decoders' idiom): value i of stream s is
/// fault_mix(seed, s, i), independent of call order.
class Prng {
 public:
  Prng(uint64_t seed, uint64_t stream) : seed_(seed), stream_(stream) {}
  uint64_t next() { return simmpi::fault_mix(seed_, stream_, counter_++); }
  uint32_t u32() { return static_cast<uint32_t>(next()); }

 private:
  uint64_t seed_;
  uint64_t stream_;
  uint64_t counter_ = 0;
};

std::vector<DispatchLevel> vector_levels() {
  std::vector<DispatchLevel> out;
  for (DispatchLevel lvl : kernels::supported_levels()) {
    if (lvl != DispatchLevel::kScalar) out.push_back(lvl);
  }
  return out;
}

/// Restore the active dispatch level when a test that forces it exits.
struct LevelGuard {
  DispatchLevel prev = kernels::active_dispatch_level();
  ~LevelGuard() { kernels::set_dispatch_level(prev); }
};

// Lengths around every boundary the kernels care about: group-of-8 edges,
// the AVX-512 64-value superblock edges, the 512-element block maximum, and
// bulk sizes with every possible short tail.
const size_t kLengths[] = {0,  1,  2,  7,  8,   9,   15,  16,  17,  31,   32,   33,  63,
                           64, 65, 66, 100, 127, 128, 129, 200, 511, 512, 1000, 4095, 4096, 4097};

// ---------------------------------------------------------------------------
// pack/unpack differential: all levels x widths 1..32 x lengths x alignment.
// ---------------------------------------------------------------------------

void check_pack_unpack(const KernelTable& vec, const KernelTable& ref, int bits, size_t n,
                       size_t byte_offset, Prng& rng) {
  const uint32_t mask =
      bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  // +byte_offset misaligns the packed stream; the value array is misaligned
  // by reading from index 1 of an over-allocated vector.
  std::vector<uint32_t> values(n + 1);
  for (size_t i = 0; i <= n; ++i) values[i] = rng.u32() & mask;
  const uint32_t* v = values.data() + 1;

  const size_t packed = kernels::packed_size_bits(n, bits);
  std::vector<uint8_t> out_ref(byte_offset + packed + 16, kGuardByte);
  std::vector<uint8_t> out_vec(byte_offset + packed + 16, kGuardByte);
  ref.pack[bits](v, n, out_ref.data() + byte_offset);
  vec.pack[bits](v, n, out_vec.data() + byte_offset);
  ASSERT_EQ(std::memcmp(out_ref.data(), out_vec.data(), out_ref.size()), 0)
      << "pack mismatch: level=" << kernels::level_name(vec.level) << " bits=" << bits
      << " n=" << n << " offset=" << byte_offset;
  // Guard bytes past packed_size must be untouched by both implementations.
  for (size_t b = byte_offset + packed; b < out_vec.size(); ++b) {
    ASSERT_EQ(out_vec[b], kGuardByte)
        << "pack wrote past packed_size: level=" << kernels::level_name(vec.level)
        << " bits=" << bits << " n=" << n << " at byte " << b;
  }

  std::vector<uint32_t> back_ref(n + 1, 0xA5A5A5A5u);
  std::vector<uint32_t> back_vec(n + 1, 0xA5A5A5A5u);
  ref.unpack[bits](out_ref.data() + byte_offset, n, back_ref.data() + 1);
  vec.unpack[bits](out_vec.data() + byte_offset, n, back_vec.data() + 1);
  ASSERT_EQ(back_ref, back_vec)
      << "unpack mismatch: level=" << kernels::level_name(vec.level) << " bits=" << bits
      << " n=" << n << " offset=" << byte_offset;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back_vec[i + 1], v[i])
        << "round trip broke at i=" << i << " bits=" << bits << " n=" << n;
  }
}

TEST(KernelConformance, PackUnpackMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    for (int bits = 1; bits <= kernels::kMaxPackBits; ++bits) {
      Prng rng(/*seed=*/0xC04F04Eu, /*stream=*/static_cast<uint64_t>(bits) * 8 +
                                        static_cast<uint64_t>(lvl));
      for (const size_t n : kLengths) {
        for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
          check_pack_unpack(vec, ref, bits, n, offset, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelConformance, PackUnpackRandomizedProperty) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xBADC0DEu, /*stream=*/static_cast<uint64_t>(lvl));
    for (int iter = 0; iter < 200; ++iter) {
      const int bits = 1 + static_cast<int>(rng.u32() % 32u);
      const size_t n = rng.u32() % 5000u;
      const size_t offset = rng.u32() % 4u;
      check_pack_unpack(vec, ref, bits, n, offset, rng);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// hz combine differential (add and subtract), including overflow lanes.
// ---------------------------------------------------------------------------

void check_combine(const KernelTable& vec, const KernelTable& ref, const std::vector<int32_t>& ra,
                   const std::vector<int32_t>& rb, int sign_b) {
  const size_t n = ra.size();
  std::vector<uint32_t> mags_ref(n + 1, 0xEE), signs_ref(n + 1, 0xEE);
  std::vector<uint32_t> mags_vec(n + 1, 0xEE), signs_vec(n + 1, 0xEE);
  const uint64_t g_ref =
      ref.hz_combine_residuals(ra.data(), rb.data(), n, sign_b, mags_ref.data(), signs_ref.data());
  const uint64_t g_vec =
      vec.hz_combine_residuals(ra.data(), rb.data(), n, sign_b, mags_vec.data(), signs_vec.data());
  ASSERT_EQ(g_ref, g_vec) << "combine guard mismatch: level=" << kernels::level_name(vec.level)
                          << " n=" << n << " sign_b=" << sign_b;
  ASSERT_EQ(mags_ref, mags_vec) << "combine magnitudes mismatch: n=" << n;
  ASSERT_EQ(signs_ref, signs_vec) << "combine signs mismatch: n=" << n;
}

TEST(KernelConformance, CombineResidualsMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  constexpr int32_t kEdges[] = {0,  1,  -1, 2, -2, std::numeric_limits<int32_t>::max(),
                                std::numeric_limits<int32_t>::min(), 0x40000000, -0x40000000};
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0x5E5E5Eu, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n > 512) continue;  // callers combine at block granularity
      std::vector<int32_t> ra(n), rb(n);
      for (size_t i = 0; i < n; ++i) {
        // Mix edge values (overflow lanes included) into random residuals:
        // the guard must match bit-for-bit even on inputs the caller will
        // reject.
        ra[i] = (rng.u32() % 8u == 0) ? kEdges[rng.u32() % std::size(kEdges)]
                                      : static_cast<int32_t>(rng.u32());
        rb[i] = (rng.u32() % 8u == 0) ? kEdges[rng.u32() % std::size(kEdges)]
                                      : static_cast<int32_t>(rng.u32());
      }
      check_combine(vec, ref, ra, rb, +1);
      check_combine(vec, ref, ra, rb, -1);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused pipeline-4 block combine: every level against the unfused codec
// sequence (decode_block x2, hz_combine_residuals, encode_block_prepared),
// byte for byte, including the bytes past the block and the guard.
// ---------------------------------------------------------------------------

/// A random encoded residual block of n values at code length c: every
/// payload bit random, padding bits included (decoders must ignore them).
std::vector<uint8_t> random_block(size_t n, int c, Prng& rng) {
  std::vector<uint8_t> block(encoded_block_size(c, n));
  block[0] = static_cast<uint8_t>(c);
  for (size_t i = 1; i < block.size(); ++i) block[i] = static_cast<uint8_t>(rng.u32());
  return block;
}

/// The unfused sequence hz_add/hz_sub ran before the slot existed; nullopt
/// when the guard rejects the sum.
std::optional<std::vector<uint8_t>> unfused_combine(const std::vector<uint8_t>& a,
                                                    const std::vector<uint8_t>& b, size_t n,
                                                    int sign_b, uint64_t* guard) {
  std::vector<int32_t> ra(n), rb(n);
  std::vector<uint32_t> mags(n), signs(n);
  (void)decode_block(a.data(), a.data() + a.size(), n, ra.data());
  (void)decode_block(b.data(), b.data() + b.size(), n, rb.data());
  *guard = kernels::table(DispatchLevel::kScalar)
               .hz_combine_residuals(ra.data(), rb.data(), n, sign_b, mags.data(), signs.data());
  if (*guard > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) return std::nullopt;
  std::vector<uint8_t> out(max_encoded_block_size(n));
  const uint8_t* end = encode_block_prepared(mags.data(), signs.data(), n,
                                             code_length_for(static_cast<uint32_t>(*guard)),
                                             out.data(), out.data() + out.size());
  out.resize(static_cast<size_t>(end - out.data()));
  return out;
}

/// Runs `t`'s slot on (a, b) copied to the given misalignments and checks
/// it against the unfused sequence: same bytes, same end pointer, same
/// guard, nothing written past the block (nullptr when the guard trips).
void check_combine_block(const KernelTable& t, const std::vector<uint8_t>& a,
                         const std::vector<uint8_t>& b, size_t n, int sign_b, size_t misalign) {
  uint64_t want_guard = 0;
  const std::optional<std::vector<uint8_t>> want = unfused_combine(a, b, n, sign_b, &want_guard);
  std::vector<uint8_t> in_a(a.size() + misalign), in_b(b.size() + misalign + 1);
  std::copy(a.begin(), a.end(), in_a.begin() + static_cast<std::ptrdiff_t>(misalign));
  std::copy(b.begin(), b.end(), in_b.begin() + static_cast<std::ptrdiff_t>(misalign) + 1);
  const size_t cap = max_encoded_block_size(n);
  std::vector<uint8_t> out(cap + 2 * misalign + 16, kGuardByte);
  uint8_t* const dst = out.data() + 2 * misalign;
  uint64_t guard = ~uint64_t{0};
  const uint8_t* end = t.hz_combine_block(in_a.data() + misalign, in_b.data() + misalign + 1, n,
                                          sign_b, dst, &guard);
  const auto where = [&] {
    return std::string("level=") + kernels::level_name(t.level) + " n=" + std::to_string(n) +
           " c=" + std::to_string(a[0]) + "," + std::to_string(b[0]) +
           " sign_b=" + std::to_string(sign_b) + " misalign=" + std::to_string(misalign);
  };
  ASSERT_EQ(guard, want_guard) << where();
  if (!want) {
    ASSERT_EQ(end, nullptr) << "guard tripped but the kernel returned a block: " << where();
    return;
  }
  ASSERT_NE(end, nullptr) << where();
  ASSERT_EQ(static_cast<size_t>(end - dst), want->size()) << where();
  ASSERT_EQ(std::memcmp(dst, want->data(), want->size()), 0) << "bytes differ: " << where();
  for (size_t i = 0; i < 2 * misalign; ++i) ASSERT_EQ(out[i], kGuardByte) << where();
  for (size_t i = 2 * misalign + want->size(); i < out.size(); ++i) {
    ASSERT_EQ(out[i], kGuardByte) << "wrote past the block: " << where();
  }
}

TEST(KernelConformance, CombineBlockMatchesUnfusedSequenceForEveryCodeLengthPair) {
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    Prng rng(/*seed=*/0xB10C4u, /*stream=*/static_cast<uint64_t>(lvl));
    for (int ca = 1; ca <= kMaxCodeLength; ++ca) {
      for (int cb = 1; cb <= kMaxCodeLength; ++cb) {
        const std::vector<uint8_t> a = random_block(32, ca, rng);
        const std::vector<uint8_t> b = random_block(32, cb, rng);
        for (const int sign_b : {+1, -1}) {
          check_combine_block(t, a, b, 32, sign_b, static_cast<size_t>(ca + cb) % 4);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelConformance, CombineBlockMatchesUnfusedSequenceOnTails) {
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    Prng rng(/*seed=*/0x7A11u, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{31}, size_t{33}, size_t{64},
                           size_t{512}}) {
      for (int ca = 1; ca <= kMaxCodeLength; ca += (n > 64 ? 3 : 1)) {
        for (int cb = 1; cb <= kMaxCodeLength; cb += (n > 64 ? 3 : 1)) {
          const std::vector<uint8_t> a = random_block(n, ca, rng);
          const std::vector<uint8_t> b = random_block(n, cb, rng);
          for (const int sign_b : {+1, -1}) {
            check_combine_block(t, a, b, n, sign_b, rng.u32() % 8u);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelConformance, CombineBlockCancelsToAConstantBlock) {
  // a - a and a + (-a) are all-zero sums: a one-byte code-length-0 block.
  Prng rng(/*seed=*/0xCA9Cu, /*stream=*/0);
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (const size_t n : {size_t{1}, size_t{8}, size_t{32}, size_t{33}, size_t{512}}) {
      for (const int c : {1, 5, 8, 13, 30, 31}) {
        const std::vector<uint8_t> a = random_block(n, c, rng);
        std::vector<int32_t> r(n);
        (void)decode_block(a.data(), a.data() + a.size(), n, r.data());
        for (int32_t& v : r) v = -v;
        std::vector<uint8_t> neg(max_encoded_block_size(n));
        neg.resize(static_cast<size_t>(
            encode_block(r.data(), n, neg.data(), neg.data() + neg.size()) - neg.data()));
        if (neg[0] == 0) continue;  // an all-zero random block
        check_combine_block(t, a, a, n, -1, 1);
        check_combine_block(t, a, neg, n, +1, 2);
        std::vector<uint8_t> out(max_encoded_block_size(n));
        uint64_t guard = 1;
        EXPECT_EQ(t.hz_combine_block(a.data(), a.data(), n, -1, out.data(), &guard),
                  out.data() + 1);
        EXPECT_EQ(out[0], 0);
        EXPECT_EQ(guard, 0u);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelConformance, CombineBlockRejectsSumsPastTheInt32Guard) {
  // Lanes at the edge of the 31-bit magnitude domain: INT32_MAX itself still
  // encodes (code length 31), one more trips the guard and returns nullptr.
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const auto block_of = [](const std::vector<int32_t>& r) {
    std::vector<uint8_t> out(max_encoded_block_size(r.size()));
    out.resize(static_cast<size_t>(
        encode_block(r.data(), r.size(), out.data(), out.data() + out.size()) - out.data()));
    return out;
  };
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (const size_t n : {size_t{1}, size_t{31}, size_t{32}, size_t{33}, size_t{512}}) {
      for (const size_t lane : {size_t{0}, n / 2, n - 1}) {
        std::vector<int32_t> ra(n, 3), rb(n, -2);
        ra[lane] = kMax - 5;
        for (const int32_t delta : {4, 5, 6}) {
          rb[lane] = delta;
          for (const int sign : {+1, -1}) {
            // sign -1 mirrors the edge: -(kMax - 5) - delta.
            std::vector<int32_t> sa = ra;
            if (sign < 0) {
              for (int32_t& v : sa) v = -v;
            }
            check_combine_block(t, block_of(sa), block_of(rb), n, sign, lane % 4);
            if (HasFatalFailure()) return;
          }
        }
        // Both operands at 30 bits: the largest sum the n = 32 vector path
        // takes in registers, still inside the domain.
        std::vector<int32_t> big(n, (1 << 30) - 1);
        check_combine_block(t, block_of(big), block_of(big), n, +1, 0);
        std::vector<int32_t> small(n, -((1 << 30) - 1));
        check_combine_block(t, block_of(big), block_of(small), n, -1, 3);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fZ quantize + predict differentials.
// ---------------------------------------------------------------------------

TEST(KernelConformance, QuantizeMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0xF10A7u, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n > 512) continue;
      std::vector<float> data(n);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.u32() % 4u) {
          case 0:  // exact round-to-even boundary cases: k + 0.5 quanta
            data[i] = (static_cast<float>(static_cast<int32_t>(rng.u32() % 2000u) - 1000) + 0.5f) *
                      2e-3f;
            break;
          case 1:  // large values that overflow the quantization domain
            data[i] = (rng.u32() % 2u ? 1.0f : -1.0f) * 1e13f;
            break;
          default:  // plain finite values
            data[i] = (static_cast<float>(rng.u32() % 2000001u) - 1000000.0f) * 1e-3f;
            break;
        }
      }
      for (const double inv : {500.0, 1.0 / 3e-4, 1e6}) {
        std::vector<int64_t> q_ref(n + 1, -77), q_vec(n + 1, -77);
        const uint64_t g_ref = ref.fz_quantize(data.data(), n, inv, q_ref.data());
        const uint64_t g_vec = vec.fz_quantize(data.data(), n, inv, q_vec.data());
        ASSERT_EQ(g_ref, g_vec) << "quantize guard mismatch: level="
                                << kernels::level_name(vec.level) << " n=" << n << " inv=" << inv;
        ASSERT_EQ(q_ref, q_vec) << "quantize output mismatch: level="
                                << kernels::level_name(vec.level) << " n=" << n << " inv=" << inv;
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelConformance, PredictMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0x9E0u, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n == 0 || n > 512) continue;
      std::vector<int64_t> q(n);
      for (size_t i = 0; i < n; ++i) {
        // In-domain quantized values (the quantize guard admits |q| < 2^30).
        q[i] = static_cast<int64_t>(static_cast<int32_t>(rng.u32()) >> 2);
      }
      const int32_t q_prev = static_cast<int32_t>(rng.u32()) >> 2;
      std::vector<uint32_t> mags_ref(n, 0xEE), signs_ref(n, 0xEE);
      std::vector<uint32_t> mags_vec(n, 0xEE), signs_vec(n, 0xEE);
      const uint32_t m_ref = ref.fz_predict(q.data(), n, q_prev, mags_ref.data(), signs_ref.data());
      const uint32_t m_vec = vec.fz_predict(q.data(), n, q_prev, mags_vec.data(), signs_vec.data());
      ASSERT_EQ(m_ref, m_vec) << "predict max mismatch: n=" << n;
      ASSERT_EQ(mags_ref, mags_vec) << "predict magnitudes mismatch: n=" << n;
      ASSERT_EQ(signs_ref, signs_vec) << "predict signs mismatch: n=" << n;
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// SZx scan differential: min/max/|max| byte-identity, including the ±0 and
// denormal lanes the canonicalization contract exists for.
// ---------------------------------------------------------------------------

TEST(KernelConformance, SzxScanMatchesScalarOracle) {
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  for (DispatchLevel lvl : vector_levels()) {
    const KernelTable& vec = kernels::table(lvl);
    Prng rng(/*seed=*/0x52C4Au, /*stream=*/static_cast<uint64_t>(lvl));
    for (const size_t n : kLengths) {
      if (n == 0 || n > 512) continue;
      std::vector<float> data(n);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.u32() % 8u) {
          case 0: data[i] = 0.0f; break;
          case 1: data[i] = -0.0f; break;
          case 2: {  // subnormal (classify_raw_block admits up to half)
            uint32_t bits = rng.u32() & 0x007FFFFFu;
            if (bits == 0) bits = 1;
            bits |= (rng.u32() & 1u) << 31;
            std::memcpy(&data[i], &bits, sizeof bits);
            break;
          }
          default:
            data[i] = (static_cast<float>(rng.u32() % 2000001u) - 1000000.0f) * 1e-3f;
            break;
        }
      }
      float out_ref[3], out_vec[3];
      ref.szx_scan(data.data(), n, out_ref);
      vec.szx_scan(data.data(), n, out_vec);
      ASSERT_EQ(std::memcmp(out_ref, out_vec, sizeof out_ref), 0)
          << "szx scan mismatch: level=" << kernels::level_name(vec.level) << " n=" << n
          << " ref={" << out_ref[0] << "," << out_ref[1] << "," << out_ref[2] << "} vec={"
          << out_vec[0] << "," << out_vec[1] << "," << out_vec[2] << "}";
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelConformance, SzxScanCanonicalizesNegativeZero) {
  // All-(-0) and mixed-sign-zero blocks must scan to {+0, +0, +0} bitwise at
  // every level — the midrange a constant block writes must not encode which
  // lane a tied zero survived in.
  const uint32_t positive_zero = 0;
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{17}, size_t{64}}) {
      std::vector<float> all_neg(n, -0.0f);
      std::vector<float> mixed(n, 0.0f);
      for (size_t i = 0; i < n; i += 2) mixed[i] = -0.0f;
      for (const auto* block : {&all_neg, &mixed}) {
        float out[3];
        t.szx_scan(block->data(), n, out);
        for (int c = 0; c < 3; ++c) {
          uint32_t bits;
          std::memcpy(&bits, &out[c], sizeof bits);
          ASSERT_EQ(bits, positive_zero)
              << "level=" << kernels::level_name(lvl) << " n=" << n << " component=" << c;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-32C: every level (slice-by-8 included) against the byte-at-a-time
// table loop, over lengths, misalignments, seeds and the fused copy.
// ---------------------------------------------------------------------------

/// The byte-at-a-time table loop: the oracle for every level's crc32c slot.
/// Works on the raw register (no pre/post inversion) so a sweep can extend a
/// prefix CRC one byte at a time.
class Crc32cOracle {
 public:
  Crc32cOracle() {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      table_[b] = crc;
    }
  }
  uint32_t step(uint32_t raw, uint8_t byte) const { return (raw >> 8) ^ table_[(raw ^ byte) & 0xFF]; }
  uint32_t operator()(const uint8_t* data, size_t n, uint32_t seed = 0) const {
    uint32_t raw = ~seed;
    for (size_t i = 0; i < n; ++i) raw = step(raw, data[i]);
    return ~raw;
  }

 private:
  uint32_t table_[256];
};

std::vector<uint8_t> random_bytes(size_t n, uint64_t stream) {
  Prng rng(/*seed=*/0xC3C32u, stream);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.u32());
  return out;
}

TEST(KernelConformance, Crc32cKnownAnswer) {
  static const uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32cOracle()(kCheck, sizeof kCheck), 0xE3069283u);
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    EXPECT_EQ(t.crc32c(kCheck, sizeof kCheck, 0, nullptr), 0xE3069283u) << kernels::level_name(lvl);
    uint8_t copy[sizeof kCheck] = {};
    EXPECT_EQ(t.crc32c(kCheck, sizeof kCheck, 0, copy), 0xE3069283u) << kernels::level_name(lvl);
    EXPECT_EQ(std::memcmp(copy, kCheck, sizeof kCheck), 0);
  }
  EXPECT_EQ(crc32c(kCheck), 0xE3069283u);
  uint8_t copy[sizeof kCheck] = {};
  EXPECT_EQ(crc32c_copy(copy, kCheck), 0xE3069283u);
  EXPECT_EQ(std::memcmp(copy, kCheck, sizeof kCheck), 0);
  EXPECT_THROW((void)crc32c_copy(std::span<uint8_t>(copy, 3), kCheck), CapacityError);
}

TEST(KernelConformance, Crc32cMatchesOracleAcrossLengthsAndAlignments) {
  // Every length 0..4160 (through the three-stream kernel's 384-byte chunk
  // edges and its word and byte tails) at every source misalignment 0..15,
  // checksum-only and fused with a copy to a destination at a different
  // misalignment.
  constexpr size_t kMaxLen = 4160;
  constexpr size_t kPad = 64;
  const Crc32cOracle oracle;
  const std::vector<uint8_t> src = random_bytes(kMaxLen + kPad, 1);
  std::vector<uint8_t> dst(kMaxLen + 2 * kPad);
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (size_t mis = 0; mis < 16; ++mis) {
      const uint8_t* in = src.data() + mis;
      const size_t dst_off = kPad + (mis * 7) % 16;
      uint32_t raw = ~0u;
      for (size_t n = 0; n <= kMaxLen; ++n) {
        if (n > 0) raw = oracle.step(raw, in[n - 1]);
        const uint32_t want = ~raw;
        ASSERT_EQ(t.crc32c(in, n, 0, nullptr), want)
            << "level=" << kernels::level_name(lvl) << " n=" << n << " misalign=" << mis;
        if (n % 7 != 0 && n < 1024 && n != kMaxLen) continue;  // copies: a spread subset
        std::fill(dst.begin(), dst.end(), kGuardByte);
        ASSERT_EQ(t.crc32c(in, n, 0, dst.data() + dst_off), want)
            << "copy: level=" << kernels::level_name(lvl) << " n=" << n << " misalign=" << mis;
        ASSERT_EQ(std::memcmp(dst.data() + dst_off, in, n), 0) << "copy bytes: n=" << n;
        for (size_t i = 0; i < dst_off; ++i) ASSERT_EQ(dst[i], kGuardByte) << "underrun n=" << n;
        for (size_t i = dst_off + n; i < dst.size(); ++i) {
          ASSERT_EQ(dst[i], kGuardByte) << "overrun n=" << n;
        }
      }
    }
  }
}

TEST(KernelConformance, Crc32cMatchesOracleOnLargeBuffers) {
  // 2 MiB (a bulk ring block) plus lengths straddling the 12 KiB chunk edge
  // of the three-stream kernel's large lanes.
  constexpr size_t kLen = size_t{2} << 20;
  const std::vector<uint8_t> src = random_bytes(kLen + 3, 2);
  const Crc32cOracle oracle;
  std::vector<uint8_t> dst(kLen);
  for (const size_t n : {size_t{12287}, size_t{12288}, size_t{12289}, size_t{12288 + 383},
                         size_t{12288 + 384}, size_t{2 * 12288 + 391}, kLen}) {
    for (const size_t mis : {size_t{0}, size_t{3}}) {
      const uint32_t want = oracle(src.data() + mis, n);
      for (DispatchLevel lvl : kernels::supported_levels()) {
        const KernelTable& t = kernels::table(lvl);
        EXPECT_EQ(t.crc32c(src.data() + mis, n, 0, nullptr), want)
            << kernels::level_name(lvl) << " n=" << n;
        EXPECT_EQ(t.crc32c(src.data() + mis, n, 0, dst.data()), want)
            << kernels::level_name(lvl) << " n=" << n;
        EXPECT_EQ(std::memcmp(dst.data(), src.data() + mis, n), 0)
            << kernels::level_name(lvl) << " n=" << n;
      }
    }
  }
}

TEST(KernelConformance, Crc32cSeedChains) {
  // crc(a‖b) == crc(b, crc(a)) at every level and across levels, for splits
  // that land on and off the kernel's chunk edges.
  const std::vector<uint8_t> buf = random_bytes(40000, 3);
  const Crc32cOracle oracle;
  const KernelTable& ref = kernels::table(DispatchLevel::kScalar);
  Prng rng(/*seed=*/0x5EEDu, /*stream=*/4);
  for (DispatchLevel lvl : kernels::supported_levels()) {
    const KernelTable& t = kernels::table(lvl);
    for (int trial = 0; trial < 64; ++trial) {
      const size_t n = trial < 8 ? buf.size() : rng.u32() % buf.size();
      const size_t cut = trial < 8 ? size_t{12288} * static_cast<size_t>(trial) / 4
                                   : (n == 0 ? 0 : rng.u32() % (n + 1));
      const uint32_t seed = trial % 2 == 0 ? 0u : rng.u32();
      const uint32_t whole = oracle(buf.data(), n, seed);
      const uint32_t head = t.crc32c(buf.data(), cut, seed, nullptr);
      ASSERT_EQ(t.crc32c(buf.data() + cut, n - cut, head, nullptr), whole)
          << "level=" << kernels::level_name(lvl) << " n=" << n << " cut=" << cut;
      ASSERT_EQ(ref.crc32c(buf.data() + cut, n - cut, head, nullptr), whole)
          << "cross-level: level=" << kernels::level_name(lvl) << " n=" << n << " cut=" << cut;
      ASSERT_EQ(crc32c(std::span<const uint8_t>(buf.data() + cut, n - cut),
                       crc32c(std::span<const uint8_t>(buf.data(), cut), seed)),
                whole);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline sweep over every bundled dataset: forcing any level must
// reproduce the scalar level's compressed bytes, homomorphic sums, and
// decompressed floats exactly.
// ---------------------------------------------------------------------------

TEST(KernelConformance, DatasetPipelinesAreLevelInvariant) {
  LevelGuard guard;
  for (const DatasetId id : all_datasets()) {
    const std::vector<float> f0 = generate_field(id, Scale::kTiny, 0);
    const std::vector<float> f1 = generate_field(id, Scale::kTiny, 1);
    FzParams p;
    p.abs_error_bound = abs_bound_from_rel(f0, 1e-3);
    SzpParams sp;
    sp.abs_error_bound = p.abs_error_bound;
    SzxParams sx;
    sx.abs_error_bound = p.abs_error_bound;

    kernels::set_dispatch_level(DispatchLevel::kScalar);
    const CompressedBuffer a_ref = fz_compress(f0, p);
    const CompressedBuffer b_ref = fz_compress(f1, p);
    const CompressedBuffer sum_ref = hz_add(a_ref, b_ref);
    const CompressedBuffer szp_ref = szp_compress(f0, sp);
    const CompressedBuffer szx_ref = szx_compress(f0, sx);
    std::vector<float> dec_ref(f0.size());
    fz_decompress(a_ref, dec_ref);

    for (DispatchLevel lvl : vector_levels()) {
      kernels::set_dispatch_level(lvl);
      SCOPED_TRACE(std::string("dataset=") + dataset_slug(id) +
                   " level=" + kernels::level_name(lvl));
      const CompressedBuffer a = fz_compress(f0, p);
      const CompressedBuffer b = fz_compress(f1, p);
      EXPECT_EQ(a.bytes, a_ref.bytes) << "fz_compress bytes drifted";
      EXPECT_EQ(b.bytes, b_ref.bytes);
      const CompressedBuffer sum = hz_add(a, b);
      EXPECT_EQ(sum.bytes, sum_ref.bytes) << "hz_add bytes drifted";
      EXPECT_EQ(szp_compress(f0, sp).bytes, szp_ref.bytes) << "szp_compress bytes drifted";
      EXPECT_EQ(szx_compress(f0, sx).bytes, szx_ref.bytes) << "szx_compress bytes drifted";
      std::vector<float> dec(f0.size());
      fz_decompress(a, dec);
      EXPECT_EQ(std::memcmp(dec.data(), dec_ref.data(), dec.size() * sizeof(float)), 0)
          << "fz_decompress floats drifted";
    }
  }
}

TEST(KernelConformance, HzAddManyIsLevelInvariant) {
  LevelGuard guard;
  const std::vector<std::vector<float>> fields = generate_fields(DatasetId::kNyx, Scale::kTiny, 6);
  FzParams p;
  p.abs_error_bound = abs_bound_from_rel(fields[0], 1e-3);
  std::vector<CompressedBuffer> ops;
  kernels::set_dispatch_level(DispatchLevel::kScalar);
  for (const auto& f : fields) ops.push_back(fz_compress(f, p));
  const CompressedBuffer ref = hz_add_many(ops);
  for (DispatchLevel lvl : vector_levels()) {
    kernels::set_dispatch_level(lvl);
    EXPECT_EQ(hz_add_many(ops).bytes, ref.bytes)
        << "hz_add_many bytes drifted at level " << kernels::level_name(lvl);
  }
}

}  // namespace
}  // namespace hzccl
