// Chunk-level helpers shared by hz_add (hz_dynamic.cpp) and hz_sub /
// hz_negate (hz_ops.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hzccl/homomorphic/hz_dynamic.hpp"

namespace hzccl::detail {

/// One chunk of hz_add (sign_b = +1) or hz_sub (sign_b = -1) on operands
/// without raw blocks: the four-pipeline loop, writing into
/// [out, out + out_capacity) and returning the bytes written.  Operand
/// payloads are untrusted, so every write — copied or re-encoded — is
/// checked against the capacity first (CapacityError).  Pipeline 4 runs the
/// fused kernels::KernelTable::hz_combine_block unless an SDC injector is
/// armed on the calling thread, which keeps the unfused decode / combine /
/// poison / encode sequence.  Same output bytes and stats either way.
[[nodiscard]] size_t hz_combine_chunk(std::span<const uint8_t> ca, std::span<const uint8_t> cb,
                                      size_t chunk_elems, uint32_t block_len, int sign_b,
                                      uint8_t* out, size_t out_capacity, HzPipelineStats& stats);

/// Copy one encoded block from [src, end) to [out, out_end) with its sign
/// plane flipped (raw blocks: every float's sign bit); returns the block
/// size.  The negate primitive behind hz_negate and hz_sub's pipeline 2.
size_t copy_block_negated(const uint8_t* src, const uint8_t* end, size_t n, uint8_t* out,
                          const uint8_t* out_end);

}  // namespace hzccl::detail
