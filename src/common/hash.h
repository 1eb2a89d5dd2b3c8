#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ssum {

/// Streaming FNV-1a 64-bit hasher — the content-fingerprint primitive of the
/// snapshot store (src/store). Not cryptographic: fingerprints defend against
/// accidental key collisions and stale cache entries, not adversaries; the
/// container CRCs (below) defend against corruption.
class Fnv1a64 {
 public:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  void Update(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint64_t h = hash_;
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    hash_ = h;
  }
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  /// Hashes the value as 8 little-endian bytes (fixed width, so adjacent
  /// variable-length fields cannot alias each other's byte streams).
  void UpdateU64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Update(b, 8);
  }
  void UpdateDouble(double v);

  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

/// One-shot FNV-1a 64 of a byte string.
uint64_t HashBytes(std::string_view bytes);

/// Order-dependent combiner for composing fingerprints from parts.
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// CRC32C (Castagnoli, the iSCSI/ext4 polynomial) over `bytes`, portable
/// slice-by-8 table implementation (no intrinsics). Used as the per-section
/// and trailer checksum of the binary snapshot containers
/// (src/store/container.h). `seed` allows incremental computation: pass a
/// previous return value to continue.
uint32_t Crc32c(std::string_view bytes, uint32_t seed = 0);
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// Fixed-width lowercase hex rendering of a 64-bit hash ("16 nibbles"), the
/// form used in cache file names.
std::string HashToHex(uint64_t value);

}  // namespace ssum
