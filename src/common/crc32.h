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

}  // namespace eve

#endif  // EVE_COMMON_CRC32_H_
