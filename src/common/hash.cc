#include "common/hash.h"

#include <array>
#include <bit>

namespace ssum {
namespace {

/// Slice-by-8 CRC32C tables for the reflected polynomial 0x82F63B78.
/// kCrc32cTables[0] is the classic bytewise table; kCrc32cTables[k][b] is
/// the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC over eight input bytes at once.
using Crc32cTableSet = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTableSet MakeCrc32cTables() {
  Crc32cTableSet t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Crc32cTableSet kCrc32cTables = MakeCrc32cTables();

/// Little-endian u32 from four bytes; compilers fold this into one load, and
/// it never reads through a misaligned or type-punned pointer.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

void Fnv1a64::UpdateDouble(double v) {
  // Canonicalize -0.0 so numerically-equal payloads fingerprint equally;
  // NaNs keep their bit pattern (any NaN in an artifact is a distinct state).
  if (v == 0.0) v = 0.0;
  UpdateU64(std::bit_cast<uint64_t>(v));
}

uint64_t HashBytes(std::string_view bytes) {
  Fnv1a64 h;
  h.Update(bytes);
  return h.Digest();
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  Fnv1a64 h;
  h.UpdateU64(seed);
  h.UpdateU64(value);
  return h.Digest();
}

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto& t = kCrc32cTables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
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

uint32_t Crc32c(std::string_view bytes, uint32_t seed) {
  return Crc32c(bytes.data(), bytes.size(), seed);
}

std::string HashToHex(uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace ssum
