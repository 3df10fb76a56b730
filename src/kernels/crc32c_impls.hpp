// CRC-32C (Castagnoli) kernel bodies behind KernelTable::crc32c.
//
// Every byte the simulated transport moves is checksummed once on each side
// of a frame, so this loop bounds the runtime's wall time.  Two bodies:
//
//   * slice-by-8 (scalar level): eight 256-entry tables fold one 64-bit word
//     per step — portable, about 4x the byte-at-a-time loop.
//   * three interleaved SSE4.2 `crc32` streams (AVX2 level and up): the
//     instruction has 3-cycle latency and 1-cycle throughput, so one stream
//     idles two thirds of the unit.  The buffer is cut into three equal
//     lanes checksummed side by side, and the lane CRCs are recombined with
//     one carry-less multiply each (Intel, "Fast CRC Computation for iSCSI
//     Polynomial Using CRC32 Instruction", 2011).
//
// Both bodies optionally copy the bytes they read to `dst` in the same pass
// (the frame codec's fused copy-and-checksum), and both treat `seed` like
// hzccl::crc32c: the result of a previous call, so crc(a‖b) == crc(b,
// crc(a)).  Every body is allocation-free and never throws.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "hzccl/util/contracts.hpp"

#if defined(__SSE4_2__) && defined(__PCLMUL__)
#include <immintrin.h>
#endif

namespace hzccl::kernels::detail {

inline constexpr uint32_t kCrc32cPoly = 0x82F63B78;  // Castagnoli, bit-reflected

struct Crc32cTables {
  uint32_t t[8][256];
};

/// t[k][b]: CRC register after byte b followed by k zero bytes.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables s{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    s.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = s.t[k - 1][b];
      s.t[k][b] = (prev >> 8) ^ s.t[0][prev & 0xFF];
    }
  }
  return s;
}

inline constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

template <bool kCopy>
inline uint32_t crc32c_slice8(const uint8_t* src, size_t n, uint32_t crc, uint8_t* dst) {
  const auto& t = kCrc32cTables.t;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, src += 8) {
      uint64_t w;
      std::memcpy(&w, src, 8);
      if constexpr (kCopy) {
        std::memcpy(dst, &w, 8);
        dst += 8;
      }
      w ^= crc;
      crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
            t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^ t[2][(w >> 40) & 0xFF] ^
            t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
    }
  }
  for (; n > 0; --n, ++src) {
    if constexpr (kCopy) *dst++ = *src;
    crc = (crc >> 8) ^ t[0][(crc ^ *src) & 0xFF];
  }
  return crc;
}

/// Scalar table entry.
inline HZCCL_HOT uint32_t crc32c_scalar_body(const uint8_t* src, size_t n, uint32_t seed,
                                             uint8_t* dst) {
  const uint32_t crc = ~seed;
  return ~(dst != nullptr ? crc32c_slice8<true>(src, n, crc, dst)
                          : crc32c_slice8<false>(src, n, crc, dst));
}

#if defined(__SSE4_2__) && defined(__PCLMUL__)

/// x^n mod P in the reflected representation (bit 31 is x^0).
constexpr uint32_t crc32c_xpow(uint64_t n) {
  uint32_t r = 0x80000000u;
  for (uint64_t i = 0; i < n; ++i) r = (r >> 1) ^ ((r & 1u) ? kCrc32cPoly : 0u);
  return r;
}

/// crc · x^(8·lane) mod P — the register after `lane` more zero bytes —
/// given k = x^(8·lane − 33) mod P.  The carry-less product of two reflected
/// 32-bit values is the 64-bit reflected value of crc·k·x, and crc32 of a
/// 64-bit word multiplies by x^32 and reduces, which supplies the rest.
inline uint32_t crc32c_shift(uint32_t crc, uint32_t k) {
  const __m128i prod = _mm_clmulepi64_si128(_mm_cvtsi32_si128(static_cast<int>(crc)),
                                            _mm_cvtsi32_si128(static_cast<int>(k)), 0x00);
  return static_cast<uint32_t>(_mm_crc32_u64(0, static_cast<uint64_t>(_mm_cvtsi128_si64(prod))));
}

/// Consume whole 3·kLane-byte chunks: lanes A, B, C run as three independent
/// crc32 chains (B and C from zero), then crc(A‖B‖C) = shift(A, 2·kLane) ^
/// shift(B, kLane) ^ C by linearity.
template <bool kCopy, size_t kLane>
inline uint32_t crc32c_3way(const uint8_t*& src, size_t& n, uint32_t crc, uint8_t*& dst) {
  static_assert(kLane % 8 == 0 && kLane >= 8);
  constexpr uint32_t kShift1 = crc32c_xpow(8 * kLane - 33);
  constexpr uint32_t kShift2 = crc32c_xpow(16 * kLane - 33);
  for (; n >= 3 * kLane; n -= 3 * kLane, src += 3 * kLane) {
    uint64_t c0 = crc;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      uint64_t a;
      uint64_t b;
      uint64_t c;
      std::memcpy(&a, src + i, 8);
      std::memcpy(&b, src + kLane + i, 8);
      std::memcpy(&c, src + 2 * kLane + i, 8);
      if constexpr (kCopy) {
        std::memcpy(dst + i, &a, 8);
        std::memcpy(dst + kLane + i, &b, 8);
        std::memcpy(dst + 2 * kLane + i, &c, 8);
      }
      c0 = _mm_crc32_u64(c0, a);
      c1 = _mm_crc32_u64(c1, b);
      c2 = _mm_crc32_u64(c2, c);
    }
    crc = crc32c_shift(static_cast<uint32_t>(c0), kShift2) ^
          crc32c_shift(static_cast<uint32_t>(c1), kShift1) ^ static_cast<uint32_t>(c2);
    if constexpr (kCopy) dst += 3 * kLane;
  }
  return crc;
}

template <bool kCopy>
inline uint32_t crc32c_sse42(const uint8_t* src, size_t n, uint32_t crc, uint8_t* dst) {
  // Byte steps up to an 8-byte source boundary keep every word load aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(src) & 7) != 0) {
    if constexpr (kCopy) *dst++ = *src;
    crc = _mm_crc32_u8(crc, *src++);
    --n;
  }
  // A large lane amortizes the two recombining multiplies; the small one
  // keeps mid-sized tails on three streams too.
  crc = crc32c_3way<kCopy, 4096>(src, n, crc, dst);
  crc = crc32c_3way<kCopy, 128>(src, n, crc, dst);
  uint64_t c = crc;
  for (; n >= 8; n -= 8, src += 8) {
    uint64_t w;
    std::memcpy(&w, src, 8);
    if constexpr (kCopy) {
      std::memcpy(dst, &w, 8);
      dst += 8;
    }
    c = _mm_crc32_u64(c, w);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; --n) {
    if constexpr (kCopy) *dst++ = *src;
    crc = _mm_crc32_u8(crc, *src++);
  }
  return crc;
}

/// AVX2-level table entry (inherited by AVX-512).
inline HZCCL_HOT uint32_t crc32c_sse42_body(const uint8_t* src, size_t n, uint32_t seed,
                                            uint8_t* dst) {
  const uint32_t crc = ~seed;
  return ~(dst != nullptr ? crc32c_sse42<true>(src, n, crc, dst)
                          : crc32c_sse42<false>(src, n, crc, dst));
}

#endif

}  // namespace hzccl::kernels::detail
