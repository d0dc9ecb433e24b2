// A hash that never changes across platforms, compilers or releases: it
// places each view in its VIEWS bucket of the version chain
// (mkb/version_store.h), and checkpoints store the buckets, so the
// placement is part of the durable format. FNV-1a over the raw bytes gives
// that stability; std::hash does not.

#ifndef EVE_COMMON_STABLE_HASH_H_
#define EVE_COMMON_STABLE_HASH_H_

#include <cstdint>
#include <string_view>

namespace eve {

// 64-bit FNV-1a. Deterministic across platforms; never reorder or reseed.
constexpr uint64_t StableHash64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const char c : bytes) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ull;  // FNV prime
  }
  return hash;
}

}  // namespace eve

#endif  // EVE_COMMON_STABLE_HASH_H_
