#include "src/common/crc32.h"

#include <array>

namespace aurora {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reversed CRC-32C polynomial

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8: table[0] is the classic bytewise table; table[k][b] is the
// CRC of byte b followed by k zero bytes, so eight input bytes fold into
// the CRC with eight independent lookups instead of eight dependent ones.
Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

// Reads 4 bytes as a little-endian word whatever the host byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const Tables& t = GetTables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace aurora
