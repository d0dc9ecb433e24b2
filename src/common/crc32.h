// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven, eight bytes
// per step (slicing-by-8). The one CRC of the program: it frames journal
// records and wire-protocol frames, and checksums version segments, so
// torn or corrupted bytes are detected instead of being parsed as garbage.

#ifndef EVE_COMMON_CRC32_H_
#define EVE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace eve {

// One-shot CRC of `size` bytes at `data`. `seed` allows incremental
// computation: Crc32(b, Crc32(a)) == Crc32(a concat b).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

// Combines the CRCs of two runs without their bytes, as zlib's
// crc32_combine does: Crc32Combiner(b.size()).Combine(Crc32(a), Crc32(b))
// == Crc32(a concat b). The constructor precomputes the operator that
// shifts a CRC past `size_b` bytes (x^(8 size_b) modulo the polynomial),
// so each Combine costs one 32-step carry-less multiply whatever the run
// length.
class Crc32Combiner {
 public:
  explicit Crc32Combiner(size_t size_b);
  uint32_t Combine(uint32_t crc_a, uint32_t crc_b) const;

 private:
  uint32_t shift_;
};

inline uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t size_b) {
  return Crc32Combiner(size_b).Combine(crc_a, crc_b);
}

}  // namespace eve

#endif  // EVE_COMMON_CRC32_H_
