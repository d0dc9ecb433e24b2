// The version checksum as MkbVersionStore computed it before version
// nodes held their buckets in chunks and their MISD segments in runs, kept
// as the oracle of versioning_test: one CRC-32 run over the head
// ("id|parent|change"), then every segment's name and body crc, the four
// MISD segments first and the kViewBuckets buckets after, 1,028 steps per
// version. A MISD segment's crc is taken over its whole text here, not from
// the store. The store folds in one CRC per bucket chunk and combines each
// MISD segment's crc from its runs, and must reach the same value.

#ifndef EVE_TESTS_LEGACY_VERSION_CRC_H_
#define EVE_TESTS_LEGACY_VERSION_CRC_H_

#include <cstdint>
#include <string>

#include "common/crc32.h"
#include "mkb/version_store.h"

namespace eve {
namespace legacy {

inline uint32_t VersionCrc(const MkbVersion& version) {
  const std::string head = std::to_string(version.id) + "|" +
                           std::to_string(version.parent) + "|" +
                           version.change;
  uint32_t crc = Crc32(head);
  const auto fold = [&crc](const std::string& name, uint32_t body_crc) {
    crc = Crc32(name, crc);
    crc = Crc32(&body_crc, sizeof(body_crc), crc);
  };
  for (const auto& segment : version.misd) {
    fold(segment->name, Crc32(segment->Text()));
  }
  for (size_t bucket = 0; bucket < kViewBuckets; ++bucket) {
    const MkbVersionSegment& segment = version.view_bucket(bucket);
    fold(segment.name, segment.crc);
  }
  return crc;
}

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_VERSION_CRC_H_
