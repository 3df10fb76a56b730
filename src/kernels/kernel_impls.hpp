// Shared kernel bodies, compiled once per variant translation unit.
//
// The scalar templates here are the single source of truth for the wire
// layout: an LSB-first little-endian bitstream in which eight X-bit values
// occupy exactly X bytes.  The SIMD sections are guarded on the including
// TU's ISA macros, so scalar.cpp (built with the project's baseline flags)
// sees only the references, avx2.cpp adds the PDEP/PEXT codecs, and
// avx512.cpp adds the VPERMB/VPMULTISHIFTQB and VCVTPD2QQ paths.  The
// integer bodies (combine/predict) are shared across all TUs on purpose:
// recompiling them under wider -m flags lets the auto-vectorizer retarget
// them per level while the arithmetic — and therefore the bytes — stays
// identical.
//
// Every function here is allocation-free and bounds-exact: packers never
// write past ceil(n*X/8) output bytes, unpackers never read past it.  The
// table-entry bodies carry HZCCL_HOT, so tools/analyze proves the
// no-alloc/no-throw/bounded-stack contract for them on every --analyze run
// (kernel-table entries additionally must reach no throw at all).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "hzccl/util/contracts.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace hzccl::kernels::detail {

// ---------------------------------------------------------------------------
// Scalar reference: pack/unpack (the conformance oracle).
// ---------------------------------------------------------------------------

// Generic group-of-8 packer for X in 1..7: eight X-bit values -> X bytes via
// one 64-bit shift cascade (the paper's ultra_fast_bit_shifting_x).
template <int X>
inline void pack8(const uint32_t* v, uint8_t* out) {
  uint64_t acc = 0;
  acc |= static_cast<uint64_t>(v[0] & ((1u << X) - 1));
  acc |= static_cast<uint64_t>(v[1] & ((1u << X) - 1)) << (X * 1);
  acc |= static_cast<uint64_t>(v[2] & ((1u << X) - 1)) << (X * 2);
  acc |= static_cast<uint64_t>(v[3] & ((1u << X) - 1)) << (X * 3);
  acc |= static_cast<uint64_t>(v[4] & ((1u << X) - 1)) << (X * 4);
  acc |= static_cast<uint64_t>(v[5] & ((1u << X) - 1)) << (X * 5);
  acc |= static_cast<uint64_t>(v[6] & ((1u << X) - 1)) << (X * 6);
  acc |= static_cast<uint64_t>(v[7] & ((1u << X) - 1)) << (X * 7);
  if constexpr (X >= 1) out[0] = static_cast<uint8_t>(acc);
  if constexpr (X >= 2) out[1] = static_cast<uint8_t>(acc >> 8);
  if constexpr (X >= 3) out[2] = static_cast<uint8_t>(acc >> 16);
  if constexpr (X >= 4) out[3] = static_cast<uint8_t>(acc >> 24);
  if constexpr (X >= 5) out[4] = static_cast<uint8_t>(acc >> 32);
  if constexpr (X >= 6) out[5] = static_cast<uint8_t>(acc >> 40);
  if constexpr (X >= 7) out[6] = static_cast<uint8_t>(acc >> 48);
}

template <int X>
inline void unpack8(const uint8_t* src, uint32_t* v) {
  uint64_t acc = 0;
  if constexpr (X >= 1) acc |= static_cast<uint64_t>(src[0]);
  if constexpr (X >= 2) acc |= static_cast<uint64_t>(src[1]) << 8;
  if constexpr (X >= 3) acc |= static_cast<uint64_t>(src[2]) << 16;
  if constexpr (X >= 4) acc |= static_cast<uint64_t>(src[3]) << 24;
  if constexpr (X >= 5) acc |= static_cast<uint64_t>(src[4]) << 32;
  if constexpr (X >= 6) acc |= static_cast<uint64_t>(src[5]) << 40;
  if constexpr (X >= 7) acc |= static_cast<uint64_t>(src[6]) << 48;
  constexpr uint64_t mask = (1u << X) - 1;
  v[0] = static_cast<uint32_t>(acc & mask);
  v[1] = static_cast<uint32_t>((acc >> (X * 1)) & mask);
  v[2] = static_cast<uint32_t>((acc >> (X * 2)) & mask);
  v[3] = static_cast<uint32_t>((acc >> (X * 3)) & mask);
  v[4] = static_cast<uint32_t>((acc >> (X * 4)) & mask);
  v[5] = static_cast<uint32_t>((acc >> (X * 5)) & mask);
  v[6] = static_cast<uint32_t>((acc >> (X * 6)) & mask);
  v[7] = static_cast<uint32_t>((acc >> (X * 7)) & mask);
}

// Tail handling (< 8 values): accumulate into one 64-bit word, flush the
// occupied bytes.  8*X bits <= 56, so a single accumulator always suffices.
template <int X>
inline void pack_tail(const uint32_t* v, size_t n, uint8_t* out) {
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<uint64_t>(v[i] & ((1u << X) - 1)) << (X * i);
  }
  const size_t bytes = (n * X + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) out[b] = static_cast<uint8_t>(acc >> (8 * b));
}

template <int X>
inline void unpack_tail(const uint8_t* src, size_t n, uint32_t* v) {
  uint64_t acc = 0;
  const size_t bytes = (n * X + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) acc |= static_cast<uint64_t>(src[b]) << (8 * b);
  constexpr uint64_t mask = (1u << X) - 1;
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint32_t>((acc >> (X * i)) & mask);
}

// Byte-multiple widths (8/16/24/32): straight little-endian byte splits.
template <int B>
inline void pack_bytes(const uint32_t* v, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < B; ++b) out[i * B + b] = static_cast<uint8_t>(v[i] >> (8 * b));
  }
}

template <int B>
inline void unpack_bytes(const uint8_t* src, size_t n, uint32_t* v) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t acc = 0;
    for (int b = 0; b < B; ++b) acc |= static_cast<uint32_t>(src[i * B + b]) << (8 * b);
    v[i] = acc;
  }
}

// Generic LSB-first bitstream codec for the remaining widths (9..31 not a
// byte multiple).  The accumulator holds at most 7 + 32 bits, so uint64
// suffices; the layout is bit-compatible with the group-of-8 cascades.
template <int X>
inline void pack_stream(const uint32_t* v, size_t n, uint8_t* out) {
  constexpr uint64_t mask = (X == 32) ? 0xFFFFFFFFull : ((1ull << X) - 1);
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t o = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= (static_cast<uint64_t>(v[i]) & mask) << acc_bits;
    acc_bits += X;
    while (acc_bits >= 8) {
      out[o++] = static_cast<uint8_t>(acc);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out[o++] = static_cast<uint8_t>(acc);
}

template <int X>
inline void unpack_stream(const uint8_t* src, size_t n, uint32_t* v) {
  constexpr uint64_t mask = (X == 32) ? 0xFFFFFFFFull : ((1ull << X) - 1);
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    while (acc_bits < X) {
      acc |= static_cast<uint64_t>(src[s++]) << acc_bits;
      acc_bits += 8;
    }
    v[i] = static_cast<uint32_t>(acc & mask);
    acc >>= X;
    acc_bits -= X;
  }
}

/// Scalar pack entry for any width 1..32 (reference for every level's tail).
template <int X>
inline HZCCL_HOT void scalar_pack(const uint32_t* v, size_t n, uint8_t* out) {
  if constexpr (X <= 7) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8, out += X) pack8<X>(v + i, out);
    if (i < n) pack_tail<X>(v + i, n - i, out);
  } else if constexpr (X % 8 == 0) {
    pack_bytes<X / 8>(v, n, out);
  } else {
    pack_stream<X>(v, n, out);
  }
}

template <int X>
inline HZCCL_HOT void scalar_unpack(const uint8_t* src, size_t n, uint32_t* v) {
  if constexpr (X <= 7) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8, src += X) unpack8<X>(src, v + i);
    if (i < n) unpack_tail<X>(src, n - i, v + i);
  } else if constexpr (X % 8 == 0) {
    unpack_bytes<X / 8>(src, n, v);
  } else {
    unpack_stream<X>(src, n, v);
  }
}

// ---------------------------------------------------------------------------
// Integer merge / predict / quantize bodies (shared across all levels; each
// TU's auto-vectorizer retargets them, the arithmetic is ISA-independent).
// ---------------------------------------------------------------------------

template <int SIGN_B>
inline uint64_t combine_loop(const int32_t* ra, const int32_t* rb, size_t n, uint32_t* mags,
                             uint32_t* signs) {
  uint64_t guard = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t s = SIGN_B >= 0
                          ? static_cast<int64_t>(ra[i]) + static_cast<int64_t>(rb[i])
                          : static_cast<int64_t>(ra[i]) - static_cast<int64_t>(rb[i]);
    const int64_t neg = s >> 63;  // 0 or -1: branch-free |s| and sign bit
    const uint64_t mag = static_cast<uint64_t>((s ^ neg) - neg);
    guard |= mag;
    mags[i] = static_cast<uint32_t>(mag);
    signs[i] = static_cast<uint32_t>(neg & 1);
  }
  return guard;
}

inline HZCCL_HOT uint64_t combine_body(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                             uint32_t* mags, uint32_t* signs) {
  return sign_b >= 0 ? combine_loop<+1>(ra, rb, n, mags, signs)
                     : combine_loop<-1>(ra, rb, n, mags, signs);
}

// ---------------------------------------------------------------------------
// Fused pipeline-4 block combine (CombineBlockFn).  The generic body is
// fixed_len.cpp's sequence — decode_block twice, the residual merge,
// encode_block_prepared — written against one level's codecs (a Codec
// policy: pack<X>/unpack<X> for the sign and remainder planes, plus the
// level's combine), so it calls no dispatch table and never throws.  With
// ScalarCodec it is the conformance oracle; the vector levels fall back to
// it for every shape their specialized path does not cover.
// ---------------------------------------------------------------------------

inline constexpr size_t kMaxCombineBlock = 512;

/// Bits of the largest magnitude in a combine guard <= INT32_MAX.
inline int guard_code_length(uint64_t guard) {
  return guard == 0 ? 0 : 64 - __builtin_clzll(guard);
}

/// Calls fn(std::integral_constant<int, X>) for the runtime width x in 1..7
/// (the remainder-plane widths), so a Codec's templated entry points inline.
template <class Fn>
inline void with_rem_width(int x, Fn&& fn) {
  switch (x) {
    case 1: fn(std::integral_constant<int, 1>{}); break;
    case 2: fn(std::integral_constant<int, 2>{}); break;
    case 3: fn(std::integral_constant<int, 3>{}); break;
    case 4: fn(std::integral_constant<int, 4>{}); break;
    case 5: fn(std::integral_constant<int, 5>{}); break;
    case 6: fn(std::integral_constant<int, 6>{}); break;
    case 7: fn(std::integral_constant<int, 7>{}); break;
    default: break;
  }
}

struct ScalarCodec {
  template <int X>
  static void pack(const uint32_t* v, size_t n, uint8_t* out) { scalar_pack<X>(v, n, out); }
  template <int X>
  static void unpack(const uint8_t* src, size_t n, uint32_t* v) { scalar_unpack<X>(src, n, v); }
  static uint64_t combine(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                          uint32_t* mags, uint32_t* signs) {
    return combine_body(ra, rb, n, sign_b, mags, signs);
  }
};

/// decode_block for a block the caller has bounded (code length 1..31):
/// residuals r[0, n), with `signs` and `mags` as n-element scratch.
template <class Codec>
inline void decode_residuals(const uint8_t* src, size_t n, int32_t* r, uint32_t* signs,
                             uint32_t* mags) {
  const int c = *src++;
  Codec::template unpack<1>(src, n, signs);
  src += (n + 7) / 8;
  const int byte_count = c / 8;
  const int rem = c % 8;
  if (rem > 0) {
    const int shift = 8 * byte_count;
    with_rem_width(rem, [&](auto x) {
      Codec::template unpack<decltype(x)::value>(src + static_cast<size_t>(byte_count) * n, n,
                                                 mags);
    });
    for (size_t i = 0; i < n; ++i) mags[i] <<= shift;
  } else {
    std::memset(mags, 0, n * sizeof(uint32_t));
  }
  for (int p = 0; p < byte_count; ++p) {
    const int shift = 8 * p;
    for (size_t i = 0; i < n; ++i) mags[i] |= static_cast<uint32_t>(src[i]) << shift;
    src += n;
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t mag = static_cast<int32_t>(mags[i]);
    r[i] = signs[i] ? -mag : mag;
  }
}

/// encode_block_prepared without the capacity check; `hi` is n-element
/// scratch for the remainder plane.
template <class Codec>
inline uint8_t* encode_residuals(const uint32_t* mags, const uint32_t* signs, size_t n, int c,
                                 uint8_t* out, uint32_t* hi) {
  *out++ = static_cast<uint8_t>(c);
  if (c == 0) return out;
  Codec::template pack<1>(signs, n, out);
  out += (n + 7) / 8;
  const int byte_count = c / 8;
  for (int p = 0; p < byte_count; ++p) {
    const int shift = 8 * p;
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(mags[i] >> shift);
    out += n;
  }
  const int rem = c % 8;
  if (rem > 0) {
    const int shift = 8 * byte_count;
    for (size_t i = 0; i < n; ++i) hi[i] = mags[i] >> shift;
    with_rem_width(rem, [&](auto x) { Codec::template pack<decltype(x)::value>(hi, n, out); });
    out += (n * static_cast<size_t>(rem) + 7) / 8;
  }
  return out;
}

template <class Codec>
inline uint8_t* combine_block_generic(const uint8_t* a, const uint8_t* b, size_t n, int sign_b,
                                      uint8_t* out, uint64_t* guard) {
  int32_t ra[kMaxCombineBlock];
  int32_t rb[kMaxCombineBlock];
  uint32_t mags[kMaxCombineBlock];
  uint32_t signs[kMaxCombineBlock];
  decode_residuals<Codec>(a, n, ra, signs, mags);
  decode_residuals<Codec>(b, n, rb, signs, mags);
  *guard = Codec::combine(ra, rb, n, sign_b, mags, signs);
  if (*guard > 0x7FFFFFFFu) return nullptr;
  // ra is dead after the merge: it doubles as the remainder scratch.
  uint32_t* hi = reinterpret_cast<uint32_t*>(ra);
  return encode_residuals<Codec>(mags, signs, n, guard_code_length(*guard), out, hi);
}

inline HZCCL_HOT uint8_t* combine_block_body(const uint8_t* a, const uint8_t* b, size_t n,
                                             int sign_b, uint8_t* out, uint64_t* guard) {
  return combine_block_generic<ScalarCodec>(a, b, n, sign_b, out, guard);
}

inline HZCCL_HOT uint32_t predict_body(const int64_t* q, size_t n, int32_t q_prev, uint32_t* mags,
                             uint32_t* signs) {
  if (n == 0) return 0;
  uint32_t max_mag = 0;
  {
    // First element peeled so the main loop reads q[i-1] directly and stays
    // free of a loop-carried dependency.
    const int64_t r = static_cast<int64_t>(static_cast<int32_t>(q[0])) - q_prev;
    const int64_t neg = r >> 63;
    const uint32_t mag = static_cast<uint32_t>((r ^ neg) - neg);
    mags[0] = mag;
    signs[0] = static_cast<uint32_t>(neg & 1);
    max_mag |= mag;
  }
  for (size_t i = 1; i < n; ++i) {
    const int64_t r = static_cast<int64_t>(static_cast<int32_t>(q[i])) -
                      static_cast<int64_t>(static_cast<int32_t>(q[i - 1]));
    const int64_t neg = r >> 63;
    const uint32_t mag = static_cast<uint32_t>((r ^ neg) - neg);
    mags[i] = mag;
    signs[i] = static_cast<uint32_t>(neg & 1);
    max_mag |= mag;
  }
  return max_mag;
}

inline HZCCL_HOT uint64_t quantize_body(const float* data, size_t n, double inv_twice_eb, int64_t* q) {
  uint64_t guard = 0;
  for (size_t i = 0; i < n; ++i) {
    const long long qi = std::llrint(static_cast<double>(data[i]) * inv_twice_eb);
    q[i] = qi;
    const long long neg = qi >> 63;
    guard |= static_cast<uint64_t>((qi ^ neg) - neg);
  }
  return guard;
}

/// SZx classification scan (SzxScanFn contract: n >= 1, NaN-free input).
/// The trailing `+ 0.0f` folds -0 into +0: min/max lane order decides which
/// zero survives a tie, and the midrange a constant block writes to the wire
/// must not depend on that order.
inline HZCCL_HOT void szx_scan_body(const float* data, size_t n, float* out) {
  float mn = data[0];
  float mx = data[0];
  float max_abs = std::fabs(data[0]);
  for (size_t i = 1; i < n; ++i) {
    const float v = data[i];
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    max_abs = std::max(max_abs, std::fabs(v));
  }
  out[0] = mn + 0.0f;
  out[1] = mx + 0.0f;
  out[2] = max_abs + 0.0f;
}

// ---------------------------------------------------------------------------
// AVX2 + BMI2: PDEP/PEXT bit-plane codecs (widths 1..8).
// ---------------------------------------------------------------------------
#if defined(__AVX2__) && defined(__BMI2__)

/// X low bits set in each of the 8 bytes: the PDEP/PEXT routing mask that
/// maps a packed 8*X-bit group onto one byte per value.
constexpr uint64_t spread_mask(int x) {
  const uint64_t low = (x >= 8) ? 0xFFull : ((1ull << x) - 1);
  uint64_t m = 0;
  for (int b = 0; b < 8; ++b) m |= low << (8 * b);
  return m;
}

/// Low byte of eight consecutive uint32 values as one 64-bit word (the
/// PEXT source): one load + one in-lane shuffle + a cross-lane merge.
inline uint64_t gather_low_bytes8(const uint32_t* v) {
  const __m256i ctrl = _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                        -1, -1, 0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                        -1, -1, -1, -1);
  const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  const __m256i g = _mm256_shuffle_epi8(x, ctrl);
  const uint64_t lo = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(g)));
  const uint64_t hi = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_extracti128_si256(g, 1)));
  return lo | (hi << 32);
}

template <int X>
inline HZCCL_HOT void pack_pext(const uint32_t* v, size_t n, uint8_t* out) {
  static_assert(X >= 1 && X <= 8);
  constexpr uint64_t spread = spread_mask(X);
  const size_t total = (n * static_cast<size_t>(X) + 7) / 8;
  size_t i = 0;
  size_t o = 0;
  // The 8-byte stores write the group's payload plus zero filler; the filler
  // is overwritten by the next group or the scalar tail, and the o + 8 bound
  // keeps every store inside the ceil(n*X/8)-byte destination.
  if constexpr (X <= 4) {
    // Two groups (16 values, 2*X bytes <= 8) merge into a single store.
    while (i + 16 <= n && o + 8 <= total) {
      const uint64_t p0 = _pext_u64(gather_low_bytes8(v + i), spread);
      const uint64_t p1 = _pext_u64(gather_low_bytes8(v + i + 8), spread);
      const uint64_t packed = p0 | (p1 << (8 * X));
      std::memcpy(out + o, &packed, 8);
      i += 16;
      o += 2 * X;
    }
  }
  while (i + 8 <= n && o + 8 <= total) {
    const uint64_t packed = _pext_u64(gather_low_bytes8(v + i), spread);
    std::memcpy(out + o, &packed, 8);
    i += 8;
    o += X;
  }
  if (i < n) scalar_pack<X>(v + i, n - i, out + o);
}

template <int X>
inline HZCCL_HOT void unpack_pdep(const uint8_t* src, size_t n, uint32_t* v) {
  static_assert(X >= 1 && X <= 8);
  constexpr uint64_t spread = spread_mask(X);
  const size_t total = (n * static_cast<size_t>(X) + 7) / 8;
  size_t i = 0;
  size_t s = 0;
  // Each iteration consumes X input bytes but loads 8; the s + 8 bound keeps
  // the overread inside the packed buffer, and the scalar tail finishes from
  // the exact byte position (groups are byte-aligned every 8 values).
  while (i + 8 <= n && s + 8 <= total) {
    uint64_t chunk;
    std::memcpy(&chunk, src + s, 8);
    const uint64_t b8 = _pdep_u64(chunk, spread);
    const __m128i bytes = _mm_cvtsi64_si128(static_cast<long long>(b8));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + i), _mm256_cvtepu8_epi32(bytes));
    i += 8;
    s += X;
  }
  if (i < n) scalar_unpack<X>(src + s, n - i, v + i);
}

/// 8-lane SZx scan.  min/max are idempotent, so the tail is an *overlapping*
/// full-width load ending at data[n) — no masked ops, no scalar epilogue.
/// |v| is a sign-bit andnot; the final `+ 0.0f` canonicalization makes the
/// result independent of which lane a tied ±0 survives in (see
/// szx_scan_body), which is what buys byte-identity with the scalar oracle.
inline HZCCL_HOT void szx_scan_avx2_body(const float* data, size_t n, float* out) {
  if (n < 8) {
    szx_scan_body(data, n, out);
    return;
  }
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vmn = _mm256_loadu_ps(data);
  __m256 vmx = vmn;
  __m256 vab = _mm256_andnot_ps(sign, vmn);
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(data + i);
    vmn = _mm256_min_ps(vmn, v);
    vmx = _mm256_max_ps(vmx, v);
    vab = _mm256_max_ps(vab, _mm256_andnot_ps(sign, v));
  }
  if (i < n) {
    const __m256 v = _mm256_loadu_ps(data + n - 8);
    vmn = _mm256_min_ps(vmn, v);
    vmx = _mm256_max_ps(vmx, v);
    vab = _mm256_max_ps(vab, _mm256_andnot_ps(sign, v));
  }
  const auto hreduce = [](__m256 v, auto op) {
    __m128 m = op(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    m = op(m, _mm_movehl_ps(m, m));
    m = op(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
  };
  const auto min_op = [](__m128 a, __m128 b) { return _mm_min_ps(a, b); };
  const auto max_op = [](__m128 a, __m128 b) { return _mm_max_ps(a, b); };
  out[0] = hreduce(vmn, min_op) + 0.0f;
  out[1] = hreduce(vmx, max_op) + 0.0f;
  out[2] = hreduce(vab, max_op) + 0.0f;
}

// Fused pipeline-4 block combine at n = 32 in AVX2 registers: 32 lanes are
// four ymm vectors.  A block is 1 + 4 + 4c bytes (sign plane, c/8 byte
// planes of 32 bytes, 4*(c%8) remainder bytes); operands up to code length
// 30 sum without int32 overflow, so the guard never trips on this path.

/// Low byte of each of 32 uint32 lanes, in lane order.
inline __m256i low_bytes32(const __m256i v[4]) {
  const __m256i byte = _mm256_set1_epi32(0xFF);
  const __m256i w01 = _mm256_packus_epi32(_mm256_and_si256(v[0], byte), _mm256_and_si256(v[1], byte));
  const __m256i w23 = _mm256_packus_epi32(_mm256_and_si256(v[2], byte), _mm256_and_si256(v[3], byte));
  // packus interleaves 128-bit lanes: dwords hold v0[0..3], v1[0..3],
  // v2[0..3], v3[0..3], v0[4..7], ... — permute them back into lane order.
  return _mm256_permutevar8x32_epi32(_mm256_packus_epi16(w01, w23),
                                     _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

/// Decode one n = 32 block of code length 1..30 into four 8-lane int32
/// residual vectors; `flip` (0 or ~0) XORs the sign plane (negation).
inline void decode32_avx2(const uint8_t* src, uint32_t flip, __m256i r[4]) {
  const int c = src[0];
  uint32_t sign_bits;
  std::memcpy(&sign_bits, src + 1, sizeof sign_bits);
  sign_bits ^= flip;
  const uint8_t* p = src + 5;
  const int planes = c / 8;
  const int rem = c % 8;
  __m256i m[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(), _mm256_setzero_si256(),
                  _mm256_setzero_si256()};
  for (int k = 0; k < planes; ++k, p += 32) {
    const __m128i shift = _mm_cvtsi32_si128(8 * k);
    for (int j = 0; j < 4; ++j) {
      const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + 8 * j));
      m[j] = _mm256_or_si256(m[j], _mm256_sll_epi32(_mm256_cvtepu8_epi32(bytes), shift));
    }
  }
  if (rem != 0) {
    // Group g (values 8g..8g+7) is bytes [g*rem, g*rem + rem) of the 4*rem
    // byte plane.  Each 8-byte load ends inside the block: it starts at
    // min(g*rem, 4*rem - 8), which for rem = 1 reaches 4 bytes back into the
    // sign plane, and the surplus low bytes are shifted out.
    const uint64_t spread = 0x0101010101010101ull * ((1ull << rem) - 1);
    const __m128i shift = _mm_cvtsi32_si128(8 * planes);
    for (int g = 0; g < 4; ++g) {
      const int at = std::min(g * rem, 4 * rem - 8);
      uint64_t chunk;
      std::memcpy(&chunk, p + at, sizeof chunk);
      chunk >>= 8 * (g * rem - at);
      const __m128i bytes = _mm_cvtsi64_si128(static_cast<long long>(_pdep_u64(chunk, spread)));
      m[g] = _mm256_or_si256(m[g], _mm256_sll_epi32(_mm256_cvtepu8_epi32(bytes), shift));
    }
  }
  const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (int j = 0; j < 4; ++j) {
    const __m256i sel = _mm256_set1_epi32(static_cast<int>((sign_bits >> (8 * j)) & 0xFFu));
    const __m256i neg = _mm256_cmpeq_epi32(_mm256_and_si256(sel, bit), bit);  // 0 or -1
    r[j] = _mm256_sub_epi32(_mm256_xor_si256(m[j], neg), neg);
  }
}

/// Encode 32 summed lanes (|s| <= INT32_MAX); returns the first byte past
/// the block and stores the guard (OR of |s|).  Writes stay inside the block.
inline uint8_t* encode32_avx2(const __m256i s[4], uint8_t* out, uint64_t* guard) {
  const __m256i a[4] = {_mm256_abs_epi32(s[0]), _mm256_abs_epi32(s[1]), _mm256_abs_epi32(s[2]),
                        _mm256_abs_epi32(s[3])};
  const __m256i any = _mm256_or_si256(_mm256_or_si256(a[0], a[1]), _mm256_or_si256(a[2], a[3]));
  __m128i x = _mm_or_si128(_mm256_castsi256_si128(any), _mm256_extracti128_si256(any, 1));
  x = _mm_or_si128(x, _mm_shuffle_epi32(x, 0x4E));
  x = _mm_or_si128(x, _mm_shuffle_epi32(x, 0xB1));
  const uint32_t g = static_cast<uint32_t>(_mm_cvtsi128_si32(x));
  *guard = g;
  const int c = g == 0 ? 0 : 32 - __builtin_clz(g);
  *out++ = static_cast<uint8_t>(c);
  if (c == 0) return out;
  uint32_t sign_bits = 0;
  for (int j = 0; j < 4; ++j) {
    sign_bits |= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(s[j]))) << (8 * j);
  }
  std::memcpy(out, &sign_bits, sizeof sign_bits);
  out += 4;
  const int planes = c / 8;
  for (int k = 0; k < planes; ++k, out += 32) {
    const __m128i shift = _mm_cvtsi32_si128(8 * k);
    const __m256i v[4] = {_mm256_srl_epi32(a[0], shift), _mm256_srl_epi32(a[1], shift),
                          _mm256_srl_epi32(a[2], shift), _mm256_srl_epi32(a[3], shift)};
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), low_bytes32(v));
  }
  const int rem = c % 8;
  if (rem != 0) {
    const __m128i shift = _mm_cvtsi32_si128(8 * planes);
    const __m256i v[4] = {_mm256_srl_epi32(a[0], shift), _mm256_srl_epi32(a[1], shift),
                          _mm256_srl_epi32(a[2], shift), _mm256_srl_epi32(a[3], shift)};
    alignas(32) uint64_t groups[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(groups), low_bytes32(v));
    // PEXT each 8-value group to rem bytes into scratch (the 8-byte stores
    // overlap forward), then copy exactly 4*rem bytes with two overlapping
    // fixed-size moves.
    const uint64_t spread = 0x0101010101010101ull * ((1ull << rem) - 1);
    uint8_t packed[40];
    for (int k = 0; k < 4; ++k) {
      const uint64_t bits = _pext_u64(groups[k], spread);
      std::memcpy(packed + k * rem, &bits, sizeof bits);
    }
    const int len = 4 * rem;
    if (len >= 16) {
      std::memcpy(out, packed, 16);
      std::memcpy(out + len - 16, packed + len - 16, 16);
    } else if (len >= 8) {
      std::memcpy(out, packed, 8);
      std::memcpy(out + len - 8, packed + len - 8, 8);
    } else {
      std::memcpy(out, packed, 4);
    }
    out += len;
  }
  return out;
}

/// The AVX2 level's fused block combine: the generic body over the PDEP/PEXT
/// codecs (inlined, no table lookups) and the AVX2-recompiled merge.
struct Avx2Codec {
  template <int X>
  static void pack(const uint32_t* v, size_t n, uint8_t* out) { pack_pext<X>(v, n, out); }
  template <int X>
  static void unpack(const uint8_t* src, size_t n, uint32_t* v) { unpack_pdep<X>(src, n, v); }
  static uint64_t combine(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                          uint32_t* mags, uint32_t* signs) {
    return combine_body(ra, rb, n, sign_b, mags, signs);
  }
};

inline HZCCL_HOT uint8_t* combine_block_avx2_body(const uint8_t* a, const uint8_t* b, size_t n,
                                                  int sign_b, uint8_t* out, uint64_t* guard) {
  if (n != 32 || a[0] > 30 || b[0] > 30) {
    return combine_block_generic<Avx2Codec>(a, b, n, sign_b, out, guard);
  }
  __m256i ra[4];
  __m256i rb[4];
  decode32_avx2(a, 0u, ra);
  decode32_avx2(b, sign_b < 0 ? ~0u : 0u, rb);
  const __m256i sum[4] = {_mm256_add_epi32(ra[0], rb[0]), _mm256_add_epi32(ra[1], rb[1]),
                          _mm256_add_epi32(ra[2], rb[2]), _mm256_add_epi32(ra[3], rb[3])};
  return encode32_avx2(sum, out, guard);
}

#endif  // __AVX2__ && __BMI2__

// ---------------------------------------------------------------------------
// AVX-512 (F/BW/DQ/VL/VBMI): 64-value unpack, 8-lane int64 merge, exact
// llrint quantizer.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VBMI__) && defined(__AVX2__) &&  \
    defined(__BMI2__)

/// VPMULTISHIFTQB control word: byte k of every qword selects the 8 bits
/// starting at bit offset k*X — value k's field within its group's lane.
constexpr uint64_t multishift_ctrl(int x) {
  uint64_t c = 0;
  for (int k = 0; k < 8; ++k) c |= static_cast<uint64_t>(k * x) << (8 * k);
  return c;
}

template <int X>
inline HZCCL_HOT void unpack_multishift(const uint8_t* src, size_t n, uint32_t* v) {
  static_assert(X >= 1 && X <= 8);
  const size_t total = (n * static_cast<size_t>(X) + 7) / 8;
  constexpr unsigned group_bytes = 8u * static_cast<unsigned>(X);  // bytes per 64 values
  // VPERMB gather: qword lane g receives stream bytes [g*X, g*X + 8) so the
  // multishift can slice all eight X-bit fields of group g at once.  Byte
  // index g*X + k never carries between index bytes (max 63), so the index
  // vector is base byte ramp + g*X per lane.
  const __m512i gather = _mm512_add_epi64(
      _mm512_set1_epi64(0x0706050403020100LL),
      _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                         _mm512_set1_epi64(X * 0x0101010101010101LL)));
  const __m512i shifts = _mm512_set1_epi64(static_cast<long long>(multishift_ctrl(X)));
  const __m512i field = _mm512_set1_epi8(static_cast<char>((X >= 8) ? 0xFF : ((1 << X) - 1)));
  const __mmask64 loadmask =
      (group_bytes >= 64) ? ~static_cast<__mmask64>(0) : ((1ull << group_bytes) - 1ull);
  size_t i = 0;
  size_t s = 0;
  // The masked load touches only the group's 8*X bytes (fault-suppressed
  // beyond the mask), so the bound is exact, not padded.
  while (i + 64 <= n && s + group_bytes <= total) {
    const __m512i raw = _mm512_maskz_loadu_epi8(loadmask, src + s);
    const __m512i gathered = _mm512_permutexvar_epi8(gather, raw);
    const __m512i shifted = _mm512_multishift_epi64_epi8(shifts, gathered);
    const __m512i lo = _mm512_and_si512(shifted, field);
    _mm512_storeu_si512(v + i, _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(lo, 0)));
    _mm512_storeu_si512(v + i + 16, _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(lo, 1)));
    _mm512_storeu_si512(v + i + 32, _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(lo, 2)));
    _mm512_storeu_si512(v + i + 48, _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(lo, 3)));
    i += 64;
    s += group_bytes;
  }
  if (i < n) unpack_pdep<X>(src + s, n - i, v + i);
}

template <int SIGN_B>
inline uint64_t combine_avx512_loop(const int32_t* ra, const int32_t* rb, size_t n,
                                    uint32_t* mags, uint32_t* signs) {
  __m512i guard_acc = _mm512_setzero_si512();
  const __m256i one32 = _mm256_set1_epi32(1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ra + i)));
    const __m512i b = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rb + i)));
    const __m512i s = SIGN_B >= 0 ? _mm512_add_epi64(a, b) : _mm512_sub_epi64(a, b);
    const __m512i mag = _mm512_abs_epi64(s);
    guard_acc = _mm512_or_si512(guard_acc, mag);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mags + i), _mm512_cvtepi64_epi32(mag));
    const __mmask8 neg = _mm512_cmplt_epi64_mask(s, _mm512_setzero_si512());
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(signs + i),
                        _mm256_maskz_mov_epi32(neg, one32));
  }
  uint64_t guard = static_cast<uint64_t>(_mm512_reduce_or_epi64(guard_acc));
  if (i < n) guard |= combine_loop<SIGN_B>(ra + i, rb + i, n - i, mags + i, signs + i);
  return guard;
}

inline HZCCL_HOT uint64_t combine_avx512_body(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                                    uint32_t* mags, uint32_t* signs) {
  return sign_b >= 0 ? combine_avx512_loop<+1>(ra, rb, n, mags, signs)
                     : combine_avx512_loop<-1>(ra, rb, n, mags, signs);
}

/// VCVTPD2QQ rounds per MXCSR exactly like llrint (both default to
/// round-nearest-even, both yield the 0x8000... indefinite on out-of-range
/// input), so the vector path is bit-identical to quantize_body even on
/// values the caller is about to reject.
inline HZCCL_HOT uint64_t quantize_avx512_body(const float* data, size_t n, double inv_twice_eb,
                                     int64_t* q) {
  const __m512d vinv = _mm512_set1_pd(inv_twice_eb);
  __m512i guard_acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d = _mm512_cvtps_pd(_mm256_loadu_ps(data + i));
    const __m512i qi = _mm512_cvtpd_epi64(_mm512_mul_pd(d, vinv));
    _mm512_storeu_si512(q + i, qi);
    guard_acc = _mm512_or_si512(guard_acc, _mm512_abs_epi64(qi));
  }
  uint64_t guard = static_cast<uint64_t>(_mm512_reduce_or_epi64(guard_acc));
  if (i < n) guard |= quantize_body(data + i, n - i, inv_twice_eb, q + i);
  return guard;
}

/// 16-lane SZx scan; same overlapping-tail + canonicalization scheme as the
/// AVX2 body.  The _mm512_reduce_* sequences are order-insensitive here
/// because the only order-sensitive case (±0 ties) is folded afterwards.
inline HZCCL_HOT void szx_scan_avx512_body(const float* data, size_t n, float* out) {
  if (n < 16) {
    szx_scan_avx2_body(data, n, out);
    return;
  }
  const __m512 sign = _mm512_set1_ps(-0.0f);
  __m512 vmn = _mm512_loadu_ps(data);
  __m512 vmx = vmn;
  __m512 vab = _mm512_andnot_ps(sign, vmn);
  size_t i = 16;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(data + i);
    vmn = _mm512_min_ps(vmn, v);
    vmx = _mm512_max_ps(vmx, v);
    vab = _mm512_max_ps(vab, _mm512_andnot_ps(sign, v));
  }
  if (i < n) {
    const __m512 v = _mm512_loadu_ps(data + n - 16);
    vmn = _mm512_min_ps(vmn, v);
    vmx = _mm512_max_ps(vmx, v);
    vab = _mm512_max_ps(vab, _mm512_andnot_ps(sign, v));
  }
  out[0] = _mm512_reduce_min_ps(vmn) + 0.0f;
  out[1] = _mm512_reduce_max_ps(vmx) + 0.0f;
  out[2] = _mm512_reduce_max_ps(vab) + 0.0f;
}

// ---------------------------------------------------------------------------
// Fused pipeline-4 block combine at n = 32 (the default block length), in
// registers: a block is 1 + 4 + 4c bytes (sign plane = one 32-bit k-mask,
// c/8 byte planes of 32 bytes, a 4*(c%8)-byte remainder), and its 32 lanes
// fit two zmm registers.  Operands up to code length 30 sum without int32
// overflow (|a| + |b| < 2^31), so the guard never trips on this path; every
// other shape takes the generic body.
// ---------------------------------------------------------------------------

/// VPERMB indices per remainder width r (1..7) of a 32-value plane (4r
/// bytes, four 8-value groups of r bytes): `gather` moves group g's bytes to
/// qword g for the multishift unpack, `compact` moves the low r bytes of
/// qword g back to bytes [g*r, g*r + r) for the store.
struct Rem32Index {
  alignas(32) uint8_t gather[8][32];
  alignas(32) uint8_t compact[8][32];
};

constexpr Rem32Index make_rem32_index() {
  Rem32Index t{};
  for (int r = 1; r <= 7; ++r) {
    for (int j = 0; j < 32; ++j) {
      t.gather[r][j] = static_cast<uint8_t>((j / 8) * r + (j % 8));
      t.compact[r][j] = static_cast<uint8_t>(j < 4 * r ? (j / r) * 8 + (j % r) : 0);
    }
  }
  return t;
}

inline constexpr Rem32Index kRem32 = make_rem32_index();

inline __m256i load_index(const uint8_t* idx) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(idx));
}

/// Decode one n = 32 block of code length 1..30 into two 16-lane int32
/// residual vectors; `flip` (0 or ~0) XORs the sign plane, which is how
/// the subtrahend of a - b is negated.
inline void decode32_avx512(const uint8_t* src, uint32_t flip, __m512i& lo, __m512i& hi) {
  const unsigned c = src[0];
  uint32_t sign_bits;
  std::memcpy(&sign_bits, src + 1, sizeof sign_bits);
  sign_bits ^= flip;
  const uint8_t* p = src + 5;
  const unsigned planes = c / 8;
  const unsigned rem = c % 8;
  __m512i m_lo = _mm512_setzero_si512();
  __m512i m_hi = _mm512_setzero_si512();
  for (unsigned k = 0; k < planes; ++k, p += 32) {
    const __m256i bytes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * k));
    m_lo = _mm512_or_si512(
        m_lo, _mm512_sll_epi32(_mm512_cvtepu8_epi32(_mm256_castsi256_si128(bytes)), shift));
    m_hi = _mm512_or_si512(
        m_hi, _mm512_sll_epi32(_mm512_cvtepu8_epi32(_mm256_extracti128_si256(bytes, 1)), shift));
  }
  if (rem != 0) {
    // The masked load reads exactly the plane's 4r bytes.
    const __m256i raw = _mm256_maskz_loadu_epi8((1u << (4 * rem)) - 1u, p);
    const __m256i ctrl =
        _mm256_set1_epi64x(static_cast<long long>(rem * 0x0706050403020100ull));
    const __m256i fields = _mm256_and_si256(
        _mm256_multishift_epi64_epi8(ctrl, _mm256_permutexvar_epi8(load_index(kRem32.gather[rem]), raw)),
        _mm256_set1_epi8(static_cast<char>((1u << rem) - 1u)));
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * planes));
    m_lo = _mm512_or_si512(
        m_lo, _mm512_sll_epi32(_mm512_cvtepu8_epi32(_mm256_castsi256_si128(fields)), shift));
    m_hi = _mm512_or_si512(
        m_hi, _mm512_sll_epi32(_mm512_cvtepu8_epi32(_mm256_extracti128_si256(fields, 1)), shift));
  }
  const __m512i zero = _mm512_setzero_si512();
  lo = _mm512_mask_sub_epi32(m_lo, static_cast<__mmask16>(sign_bits), zero, m_lo);
  hi = _mm512_mask_sub_epi32(m_hi, static_cast<__mmask16>(sign_bits >> 16), zero, m_hi);
}

/// Encode 32 summed lanes (|s| <= INT32_MAX); returns the first byte past
/// the block and stores the guard (OR of |s|).
inline uint8_t* encode32_avx512(__m512i s_lo, __m512i s_hi, uint8_t* out, uint64_t* guard) {
  const __m512i a_lo = _mm512_abs_epi32(s_lo);
  const __m512i a_hi = _mm512_abs_epi32(s_hi);
  const uint32_t g = static_cast<uint32_t>(_mm512_reduce_or_epi32(_mm512_or_si512(a_lo, a_hi)));
  *guard = g;
  const unsigned c = g == 0 ? 0u : 32u - static_cast<unsigned>(__builtin_clz(g));
  *out++ = static_cast<uint8_t>(c);
  if (c == 0) return out;
  const uint32_t sign_bits = static_cast<uint32_t>(_mm512_movepi32_mask(s_lo)) |
                             (static_cast<uint32_t>(_mm512_movepi32_mask(s_hi)) << 16);
  std::memcpy(out, &sign_bits, sizeof sign_bits);
  out += 4;
  const unsigned planes = c / 8;
  for (unsigned k = 0; k < planes; ++k, out += 32) {
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * k));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm512_cvtepi32_epi8(_mm512_srl_epi32(a_lo, shift)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16),
                     _mm512_cvtepi32_epi8(_mm512_srl_epi32(a_hi, shift)));
  }
  const unsigned rem = c % 8;
  if (rem != 0) {
    // One byte per lane, then per qword v0 | v1 << r | ... | v7 << 7r:
    // pairs by VPMADDUBSW (x 1, x 2^r), quads by VPMADDWD (x 1, x 2^2r),
    // octets by a 4r-bit qword shift; VPERMB compacts the four r-byte
    // groups and a masked store writes exactly 4r bytes.
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * planes));
    const __m256i v = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm512_cvtepi32_epi8(_mm512_srl_epi32(a_lo, shift))),
        _mm512_cvtepi32_epi8(_mm512_srl_epi32(a_hi, shift)), 1);
    const __m256i pairs =
        _mm256_maddubs_epi16(_mm256_set1_epi16(static_cast<short>(1u | (1u << (8 + rem)))), v);
    const __m256i quads =
        _mm256_madd_epi16(pairs, _mm256_set1_epi32(static_cast<int>(1u | (1u << (16 + 2 * rem)))));
    const __m256i octets = _mm256_or_si256(
        _mm256_and_si256(quads, _mm256_set1_epi64x(0xFFFFFFFFll)),
        _mm256_sll_epi64(_mm256_srli_epi64(quads, 32), _mm_cvtsi32_si128(static_cast<int>(4 * rem))));
    _mm256_mask_storeu_epi8(out, (1u << (4 * rem)) - 1u,
                            _mm256_permutexvar_epi8(load_index(kRem32.compact[rem]), octets));
    out += 4 * rem;
  }
  return out;
}

struct Avx512Codec {
  template <int X>
  static void pack(const uint32_t* v, size_t n, uint8_t* out) { pack_pext<X>(v, n, out); }
  template <int X>
  static void unpack(const uint8_t* src, size_t n, uint32_t* v) {
    unpack_multishift<X>(src, n, v);
  }
  static uint64_t combine(const int32_t* ra, const int32_t* rb, size_t n, int sign_b,
                          uint32_t* mags, uint32_t* signs) {
    return combine_avx512_body(ra, rb, n, sign_b, mags, signs);
  }
};

inline HZCCL_HOT uint8_t* combine_block_avx512_body(const uint8_t* a, const uint8_t* b, size_t n,
                                                    int sign_b, uint8_t* out, uint64_t* guard) {
  if (n != 32 || a[0] > 30 || b[0] > 30) {
    return combine_block_generic<Avx512Codec>(a, b, n, sign_b, out, guard);
  }
  __m512i a_lo, a_hi, b_lo, b_hi;
  decode32_avx512(a, 0u, a_lo, a_hi);
  decode32_avx512(b, sign_b < 0 ? ~0u : 0u, b_lo, b_hi);
  return encode32_avx512(_mm512_add_epi32(a_lo, b_lo), _mm512_add_epi32(a_hi, b_hi), out, guard);
}

#endif  // AVX-512 family

}  // namespace hzccl::kernels::detail
