// FNV-1a 64 over a byte string: the serve session key and the checkpoint
// payload hash. Unkeyed and easy to recompute, so it detects corruption,
// not tampering.
#pragma once

#include <cstdint>
#include <span>

namespace socpower::util {

[[nodiscard]] inline std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;  // offset basis
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace socpower::util
