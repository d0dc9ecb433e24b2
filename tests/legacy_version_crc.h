// The version checksum as MkbVersionStore computed it before version
// nodes held their buckets in chunks, kept as the oracle of
// versioning_test: one CRC-32 run over the head ("id|parent|change"), then
// every segment's name and body crc, the four MISD segments first and the
// kViewBuckets buckets after, 1,028 steps per version. The store now folds
// in one CRC per bucket chunk, and must reach the same value.

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
  for (size_t i = 0; i < kNumVersionSegments; ++i) {
    const MkbVersionSegment& segment = version.segment(i);
    crc = Crc32(segment.name, crc);
    const uint32_t body_crc = segment.crc;
    crc = Crc32(&body_crc, sizeof(body_crc), crc);
  }
  return crc;
}

}  // namespace legacy
}  // namespace eve

#endif  // EVE_TESTS_LEGACY_VERSION_CRC_H_
