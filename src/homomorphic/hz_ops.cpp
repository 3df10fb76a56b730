#include "hzccl/homomorphic/hz_ops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "hzccl/compressor/fixed_len.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"
#include "hzccl/util/threading.hpp"
#include "hz_chunk.hpp"

namespace hzccl {

namespace detail {

/// Copy one encoded block while flipping its sign plane (the negate
/// primitive).  Decoders read sign bits only where magnitudes are nonzero in
/// value terms, so flipped signs of zero residuals are harmless but leave
/// the stream non-canonical; value-level semantics are exact.
HZCCL_HOT size_t copy_block_negated(const uint8_t* src, const uint8_t* end, size_t n, uint8_t* out,
                                    const uint8_t* out_end) {
  const size_t size = peek_block_size(src, end, n);
  if (out > out_end || size > static_cast<size_t>(out_end - out)) {
    detail::raise_capacity("hz negate: block copy exceeds output capacity");
  }
  std::memcpy(out, src, size);
  const int c = out[0];
  if (c == kRawBlockMarker) {
    // Raw block: negation is a sign-bit flip on each stored float (exact for
    // every value, infinities and NaN payloads included).
    uint8_t* floats = out + 1;
    for (size_t i = 0; i < n; ++i) floats[i * 4 + 3] ^= 0x80u;
    return size;
  }
  if (c > 0) {
    const size_t sign_bytes = (n + 7) / 8;
    uint8_t* signs = out + 1;
    for (size_t b = 0; b < sign_bytes; ++b) signs[b] = static_cast<uint8_t>(~signs[b]);
    // Keep the padding bits of the tail byte zero (canonical padding).
    const size_t tail_bits = n % 8;
    if (tail_bits != 0) {
      signs[sign_bytes - 1] &= static_cast<uint8_t>((1u << tail_bits) - 1);
    }
  }
  return size;
}

}  // namespace detail

namespace {

constexpr uint32_t kMaxBlockLen = 512;

HZCCL_HOT int32_t checked_i32(int64_t v, const char* what) {
  if (v > std::numeric_limits<int32_t>::max() || v < std::numeric_limits<int32_t>::min()) {
    detail::raise_overflow(what, " overflows int32");
  }
  return static_cast<int32_t>(v);
}

/// Per-chunk scale: decode, multiply, re-encode (copy fast paths for the
/// trivial factors are handled by the callers).
HZCCL_HOT size_t scale_chunk(std::span<const uint8_t> ca, size_t chunk_elems, uint32_t block_len,
                             int64_t factor, uint8_t* out, size_t out_capacity) {
  uint8_t* const out_begin = out;
  const uint8_t* const out_end = out + out_capacity;
  const uint8_t* pa = ca.data();
  const uint8_t* const ea = pa + ca.size();

  int32_t rbuf[kMaxBlockLen];
  uint32_t mags[kMaxBlockLen];
  uint32_t signs[kMaxBlockLen];

  size_t remaining = chunk_elems;
  while (remaining > 0) {
    const size_t n = std::min<size_t>(block_len, remaining);
    const size_t size_a = peek_block_size(pa, ea, n);
    if (*pa == kRawBlockMarker) {
      // Raw block: scale the stored floats directly; the block stays outside
      // the quantized chain in the result exactly as in the operand.
      float fbuf[kMaxBlockLen];
      decode_raw_block(pa, ea, n, fbuf);
      for (size_t i = 0; i < n; ++i) {
        fbuf[i] = static_cast<float>(static_cast<double>(fbuf[i]) * static_cast<double>(factor));
      }
      out = encode_raw_block(fbuf, n, out, out_end);
    } else if (*pa == 0) {
      // Constant block: k * 0-residuals stay zero.
      if (out >= out_end) detail::raise_capacity("hz_scale: chunk output capacity exceeded");
      *out++ = 0;
    } else {
      decode_block(pa, ea, n, rbuf);
      uint32_t max_mag = 0;
      for (size_t i = 0; i < n; ++i) {
        const int64_t s = static_cast<int64_t>(rbuf[i]) * factor;
        const int32_t r = checked_i32(s, "scaled residual");
        const uint32_t neg = static_cast<uint32_t>(r < 0);
        const uint32_t mag =
            neg ? static_cast<uint32_t>(-static_cast<int64_t>(r)) : static_cast<uint32_t>(r);
        mags[i] = mag;
        signs[i] = neg;
        max_mag |= mag;
      }
      out = encode_block_prepared(mags, signs, n, code_length_for(max_mag), out, out_end);
    }
    pa += size_a;
    remaining -= n;
  }
  if (pa != ea) detail::raise_format("hz_scale: chunk payload longer than its block grid");
  return static_cast<size_t>(out - out_begin);
}

/// Shared driver: apply `chunk_fn(c, range, out_span) -> (size, outlier)`
/// across all chunks in parallel and assemble the stream.  The span carries
/// the chunk's worst-case capacity so every chunk function can honor the
/// output-capacity contract.  When the header carries kFlagHasDigests,
/// `digest_fn(c)` supplies each chunk's folded ABFT digest — an O(1) pure
/// function on every fold path (scale/negate/sub are linear maps of the
/// quantized chain, so the operand digests map through algebraically).
template <class ChunkFn, class DigestFn>
CompressedBuffer assemble_parallel(const FzHeader& header, int num_threads, BufferPool* pool,
                                   const ChunkFn& chunk_fn, const DigestFn& digest_fn) {
  ChunkedStreamAssembler assembler(header, pool);
  ScopedNumThreads scoped(num_threads);
  OmpExceptionCollector errors;
#pragma omp parallel for schedule(static)
  for (uint32_t c = 0; c < assembler.num_chunks(); ++c) {
    errors.run([&, c] {
      const Range r = chunk_range(header.num_elements,
                                  static_cast<int>(header.num_chunks), static_cast<int>(c));
      const std::span<uint8_t> out{assembler.chunk_buffer(c), assembler.chunk_capacity(c)};
      const auto [size, outlier] = chunk_fn(c, r, out);
      assembler.set_chunk(c, size, outlier);
      if (assembler.emits_digests()) assembler.set_chunk_digest(c, digest_fn(c));
    });
  }
  errors.rethrow();
  return assembler.finish();
}

template <class ChunkFn>
CompressedBuffer assemble_parallel(const FzHeader& header, int num_threads, BufferPool* pool,
                                   const ChunkFn& chunk_fn) {
  return assemble_parallel(header, num_threads, pool, chunk_fn,
                           [](uint32_t) { return integrity::Digest{}; });
}

}  // namespace

CompressedBuffer hz_scale(const FzView& a, int32_t factor, int num_threads, BufferPool* pool) {
  if (factor == 1) {
    // Identity: re-assemble a verbatim copy of the stream.
    return assemble_parallel(
        a.header, num_threads, pool,
        [&](uint32_t c, const Range& r, std::span<uint8_t> out) -> std::pair<size_t, int32_t> {
          if (r.size() == 0) return {0, a.chunk_outliers[c]};
          const auto chunk = a.chunk_payload(c);
          if (chunk.size() > out.size()) {
            throw CapacityError("hz_scale: chunk copy exceeds output capacity");
          }
          std::memcpy(out.data(), chunk.data(), chunk.size());
          return {chunk.size(), a.chunk_outliers[c]};
        },
        [&](uint32_t c) { return a.chunk_digest(c); });
  }
  if (factor == -1) return hz_negate(a, num_threads, pool);

  return assemble_parallel(
      a.header, num_threads, pool,
      [&](uint32_t c, const Range& r, std::span<uint8_t> out) -> std::pair<size_t, int32_t> {
        const int32_t outlier = checked_i32(
            static_cast<int64_t>(a.chunk_outliers[c]) * factor, "scaled outlier");
        if (r.size() == 0) return {0, outlier};
        return {scale_chunk(a.chunk_payload(c), r.size(), a.block_len(), factor, out.data(),
                            out.size()),
                outlier};
      },
      [&](uint32_t c) { return static_cast<int64_t>(factor) * a.chunk_digest(c); });
}

CompressedBuffer hz_scale(const CompressedBuffer& a, int32_t factor, int num_threads,
                          BufferPool* pool) {
  return hz_scale(parse_fz(a.bytes), factor, num_threads, pool);
}

CompressedBuffer hz_negate(const FzView& a, int num_threads, BufferPool* pool) {
  return assemble_parallel(
      a.header, num_threads, pool,
      [&](uint32_t c, const Range& r, std::span<uint8_t> out_span) -> std::pair<size_t, int32_t> {
        const int32_t outlier =
            checked_i32(-static_cast<int64_t>(a.chunk_outliers[c]), "negated outlier");
        if (r.size() == 0) return {0, outlier};
        const auto chunk = a.chunk_payload(c);
        const uint8_t* src = chunk.data();
        const uint8_t* const end = src + chunk.size();
        uint8_t* out = out_span.data();
        uint8_t* const out_begin = out;
        const uint8_t* const out_end = out + out_span.size();
        size_t remaining = r.size();
        while (remaining > 0) {
          const size_t n = std::min<size_t>(a.block_len(), remaining);
          const size_t size = detail::copy_block_negated(src, end, n, out, out_end);
          src += size;
          out += size;
          remaining -= n;
        }
        if (src != end) throw FormatError("hz_negate: trailing bytes in chunk payload");
        return {static_cast<size_t>(out - out_begin), outlier};
      },
      [&](uint32_t c) { return -a.chunk_digest(c); });
}

CompressedBuffer hz_negate(const CompressedBuffer& a, int num_threads, BufferPool* pool) {
  return hz_negate(parse_fz(a.bytes), num_threads, pool);
}

CompressedBuffer hz_sub(const CompressedBuffer& a, const CompressedBuffer& b,
                        HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  const FzView va = parse_fz(a.bytes);
  const FzView vb = parse_fz(b.bytes);
  require_layout_compatible(va, vb);
  if (has_raw_blocks(va.header) || has_raw_blocks(vb.header)) {
    return detail::hz_combine_raw(va, vb, -1, stats, num_threads, pool);
  }

  ArenaScope scratch;
  const std::span<HzPipelineStats> chunk_stats = scratch.alloc<HzPipelineStats>(va.num_chunks());
  // digest(a - b) = digest(a) - digest(b); only when both operands carry one.
  FzHeader header = va.header;
  if (!(va.has_digests() && vb.has_digests())) {
    header.flags &= static_cast<uint16_t>(~kFlagHasDigests);
  }
  CompressedBuffer result = assemble_parallel(
      header, num_threads, pool,
      [&](uint32_t c, const Range& r, std::span<uint8_t> out) -> std::pair<size_t, int32_t> {
        const int32_t outlier = checked_i32(
            static_cast<int64_t>(va.chunk_outliers[c]) - vb.chunk_outliers[c],
            "outlier difference");
        if (r.size() == 0) return {0, outlier};
        return {detail::hz_combine_chunk(va.chunk_payload(c), vb.chunk_payload(c), r.size(),
                                         va.block_len(), -1, out.data(), out.size(),
                                         chunk_stats[c]),
                outlier};
      },
      [&](uint32_t c) { return va.chunk_digest(c) - vb.chunk_digest(c); });
  if (stats) {
    for (const auto& s : chunk_stats) *stats += s;
  }
  return result;
}

namespace {

/// Byte copy of a stream into (optionally pooled) fresh storage, so every
/// partial sum hz_add_many holds is owned uniformly and can be recycled.
CompressedBuffer copy_stream(const CompressedBuffer& src, BufferPool* pool) {
  CompressedBuffer out;
  if (pool) out.bytes = pool->acquire(src.bytes.size());
  out.bytes.assign(src.bytes.begin(), src.bytes.end());
  return out;
}

}  // namespace

CompressedBuffer hz_add_many(std::span<const CompressedBuffer> operands,
                             HzPipelineStats* stats, int num_threads, BufferPool* pool) {
  if (operands.empty()) throw Error("hz_add_many: need at least one operand");
  if (operands.size() == 1) return copy_stream(operands[0], pool);

  // Balanced pairwise tree: level 0 pairs the inputs, later levels pair the
  // partial sums.  All partials land in pooled storage and are released as
  // soon as the next level consumes them, so each buffer ping-pongs between
  // the pool and at most one live partial — no per-level vector churn.
  std::vector<CompressedBuffer> level;
  level.reserve((operands.size() + 1) / 2);
  for (size_t i = 0; i + 1 < operands.size(); i += 2) {
    level.push_back(hz_add(operands[i], operands[i + 1], stats, num_threads, pool));
  }
  if (operands.size() % 2 == 1) level.push_back(copy_stream(operands.back(), pool));

  while (level.size() > 1) {
    // Compact in place: slot w receives the sum of the pair at (i, i+1),
    // whose storage goes straight back to the pool for the next pair's sum.
    size_t w = 0;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      CompressedBuffer sum = hz_add(level[i], level[i + 1], stats, num_threads, pool);
      if (pool) {
        pool->release(std::move(level[i].bytes));
        pool->release(std::move(level[i + 1].bytes));
      }
      level[w++] = std::move(sum);
    }
    if (level.size() % 2 == 1) {
      CompressedBuffer tail = std::move(level.back());
      level[w++] = std::move(tail);
    }
    level.resize(w);
  }
  return std::move(level.front());
}

}  // namespace hzccl
