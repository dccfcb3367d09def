// CRC-32C (Castagnoli), portable slice-by-8 software implementation.
//
// Checksums redo records: the writer seals each record once
// (log::Seal), the record carries that value, and the storage-node
// scrubber (§2.1 activity 8) recomputes it over the stored copy and
// compares. The record codec also writes and verifies it as a trailer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace aurora {

/// Computes CRC-32C over `data`, continuing from `seed` (0 for a fresh CRC).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// Computes CRC-32C over a string view. NOTE: pass string literals through
/// std::string_view explicitly when also passing a seed — a bare `const
/// char*` with an integral second argument would select the (void*, size)
/// overload above.
inline uint32_t Crc32c(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

}  // namespace aurora
