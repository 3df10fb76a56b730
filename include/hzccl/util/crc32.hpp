// CRC-32C (Castagnoli) — the checksum behind every transport frame and the
// optional stream trailer.  Each frame is checksummed once on each side, so
// this is on the path of every byte the runtime moves: the body is a
// KernelTable slot (hzccl/kernels/dispatch.hpp) — slice-by-8 at the scalar
// level, three interleaved SSE4.2 crc32 streams from the AVX2 level up —
// and every level returns the same value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hzccl {

/// CRC-32C of `data`, optionally continuing from a previous crc:
/// crc32c(a‖b) == crc32c(b, crc32c(a)).
uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

/// Copy `src` into `dst` (same size, non-overlapping) and return
/// crc32c(src, seed), reading each byte once — the frame codec's fused
/// copy-and-checksum.  Throws CapacityError if the sizes differ.
uint32_t crc32c_copy(std::span<uint8_t> dst, std::span<const uint8_t> src, uint32_t seed = 0);

}  // namespace hzccl
