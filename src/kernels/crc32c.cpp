// hzccl::crc32c / crc32c_copy: the public CRC-32C entry points, routed
// through the active KernelTable slot.
#include "hzccl/util/crc32.hpp"

#include "hzccl/kernels/dispatch.hpp"
#include "hzccl/util/contracts.hpp"
#include "hzccl/util/raise.hpp"

namespace hzccl {

HZCCL_HOT uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed) {
  return kernels::active().crc32c(data.data(), data.size(), seed, nullptr);
}

HZCCL_HOT uint32_t crc32c_copy(std::span<uint8_t> dst, std::span<const uint8_t> src,
                               uint32_t seed) {
  if (dst.size() != src.size()) {
    detail::raise_capacity("crc32c_copy: destination size does not match the source");
  }
  if (src.empty()) return seed;
  return kernels::active().crc32c(src.data(), src.size(), seed, dst.data());
}

}  // namespace hzccl
