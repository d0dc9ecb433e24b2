// Copy-on-write MKB version chain. Every committed capability change (and
// every view-pool mutation that rides along with one) produces a new
// immutable version v0..vN. A version is a list of CRC-checksummed text
// segments — the four MISD blocks of the MKB, then the serialized view pool
// split into kViewBuckets hash buckets — and a version shares by
// shared_ptr every segment it leaves untouched. A commit therefore renders
// the MKB plus only the buckets holding views it changed: O(MKB + affected
// views), never O(pool).
//
// The node's own table costs what the commit changed, too: it holds the
// four MISD segment pointers and kBucketChunks pointers to immutable chunks
// of kChunkBuckets bucket pointers each. A commit copies only the chunks
// holding a re-rendered bucket and shares the rest with its parent, and
// each chunk carries the CRC of its (name, segment CRC) pairs, so the
// version CRC folds in one CRC per chunk instead of rehashing every bucket.
//
// Readers pin a version in O(1): `Tip()` / `Pin(id)` hand out a
// shared_ptr<const Mkb> plus the version node, and the pin stays valid (and
// byte-stable) across any number of concurrent commits — commits build the
// new node outside the store mutex and take it only to append the node and
// swap the tip pointer.
//
// The chain is append-only even under rollback: RollbackToVersion commits
// the restored state as a NEW version, so history is never truncated and
// every version id ever handed out stays resolvable. Only an aborted batch
// (RevertTo) drops versions: those of its own commits, which no committed
// state ever named.

#ifndef EVE_MKB_VERSION_STORE_H_
#define EVE_MKB_VERSION_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "mkb/mkb.h"

namespace eve {

// One immutable, checksummed text segment. Shared (by shared_ptr) between
// versions whose renderings are byte-identical.
struct MkbVersionSegment {
  std::string name;  // RELATIONS, JOINS, FUNCTIONS, PCS, VIEWS
  std::string body;
  uint32_t crc = 0;  // Crc32(body)
};

// The four MISD segments (RELATIONS, JOINS, FUNCTIONS, PCS; kNumMkbSegments
// in mkb/mkb.h) lead every version, in this order.

// The VIEWS part of a version: view v's SaveViews block lives in bucket
// ViewBucketOf(v), each bucket holding its blocks in name order. Fixed at
// compile time because checkpoints store the buckets; see
// docs/VERSIONING.md for how the count was measured.
inline constexpr size_t kViewBuckets = 1024;
size_t ViewBucketOf(std::string_view view_name);

// The number of segments every version carries: MISD, then the buckets.
inline constexpr size_t kNumVersionSegments = kNumMkbSegments + kViewBuckets;

// The buckets of a version, in kBucketChunks chunks of kChunkBuckets.
inline constexpr size_t kChunkBuckets = 32;
inline constexpr size_t kBucketChunks = kViewBuckets / kChunkBuckets;
static_assert(kBucketChunks * kChunkBuckets == kViewBuckets);

// kChunkBuckets consecutive bucket pointers, shared by every version whose
// buckets in that range are pointer-identical. Immutable once built.
struct MkbBucketChunk {
  std::array<std::shared_ptr<const MkbVersionSegment>, kChunkBuckets> buckets;
  // CRC-32 of the buckets' (name, segment crc) pairs in order, which the
  // version CRC folds in.
  uint32_t crc = 0;
};

// One immutable node in the version chain.
struct MkbVersion {
  uint64_t id = 0;
  uint64_t parent = 0;  // id - 1; v0 is its own parent
  std::string change;   // single-line description of the committing change
  std::array<std::shared_ptr<const MkbVersionSegment>, kNumMkbSegments> misd;
  std::array<std::shared_ptr<const MkbBucketChunk>, kBucketChunks> chunks;
  // Covers id, parent, change and every segment's name and crc, as one
  // run: the MISD segments, then the buckets in order.
  uint32_t crc = 0;

  const MkbVersionSegment& view_bucket(size_t bucket) const {
    return *chunks[bucket / kChunkBuckets]->buckets[bucket % kChunkBuckets];
  }
  // Segment i < kNumVersionSegments: the MISD segments, then the buckets.
  const MkbVersionSegment& segment(size_t i) const {
    return i < kNumMkbSegments ? *misd[i] : view_bucket(i - kNumMkbSegments);
  }
};

// One view's block in SaveViews text: the "-- VIEW <state> ..." header line
// through to the next header. The views point into the split text.
struct ViewBlock {
  std::string name;
  bool active = true;
  std::string_view header;      // the header line after "-- VIEW ", trimmed
  std::string_view text;        // the whole block, as rendered
  std::string_view definition;  // the CREATE VIEW statement, without ';'
  bool terminated = true;       // false: the statement has no ';'
};

// Splits SaveViews-format text into its view blocks, in text order. A block
// starts at a line that begins with "-- VIEW ", and its statement ends at
// the first ';' outside '...' literals and "..." identifiers; the next
// header is searched for only after that ';', so a literal may hold ';' or
// "\n-- VIEW ". An unterminated statement runs to the end of the text.
// This is the one splitter of view-pool text: commits bucket with it,
// ViewsAt and the console's SHOW VIEW(S) read with it, and ParseViewPool
// (eve/view_pool_io.h) turns its blocks into views.
std::vector<ViewBlock> SplitViewBlocks(std::string_view views_text);

// Every view block `version` froze, merged from its buckets into name
// order — the blocks of the SaveViews text of that version, in order. The
// views point into the version's segments.
std::vector<ViewBlock> VersionViewBlocks(const MkbVersion& version);

// Re-rendered VIEWS buckets handed to a commit: bucket index → the
// bucket's view blocks in name order.
using ViewBucketBodies = std::map<size_t, std::string>;

// A pinned snapshot: the version node plus a parsed MKB. Holding the
// returned shared_ptrs keeps both alive across concurrent commits.
struct PinnedMkb {
  std::shared_ptr<const MkbVersion> version;
  std::shared_ptr<const Mkb> mkb;
  uint64_t id() const { return version ? version->id : 0; }
};

// Scrub result: counters plus a human-readable line per finding. The VIEWS
// buckets of a version count as one segment, shared when every bucket is.
struct VersionScrubStats {
  uint64_t versions_checked = 0;
  uint64_t segments_checked = 0;
  uint64_t segments_shared = 0;  // reused verbatim from the parent version
  uint64_t corruptions = 0;
  std::vector<std::string> findings;

  std::string ToString() const;
};

// Retained (unique segment) vs logical (sum over versions) byte counts —
// the COW amplification measured by bench_versioning.
struct VersionByteStats {
  uint64_t retained_bytes = 0;
  uint64_t logical_bytes = 0;
};

class MkbVersionStore {
 public:
  MkbVersionStore() = default;
  MkbVersionStore(const MkbVersionStore& other);
  MkbVersionStore& operator=(const MkbVersionStore& other);

  // Re-seeds the chain with a single version v0 holding `mkb` + the view
  // pool text (SaveViews format, split into buckets here). Used at system
  // construction and checkpoint load.
  void Reset(std::shared_ptr<const Mkb> mkb, std::string_view views_text,
             std::string change);

  // Appends version NextId() rendering `mkb` and re-rendering only the
  // `buckets` handed in; every other bucket is the tip's, shared by
  // pointer. Of the MISD segments only the `changed` ones are rendered:
  // the caller vouches that the others render as the tip's do (as
  // MkbEvolutionReport::changed_segments does for an evolved tip MKB), so
  // they are shared unrendered, and so are all four when `mkb` is
  // pointer-identical to the tip's MKB. A rendered segment byte-identical
  // to the tip's is shared, not copied. Returns the new version id.
  // Commits and resets must come from one thread at a time.
  uint64_t Commit(std::shared_ptr<const Mkb> mkb, ViewBucketBodies buckets,
                  std::string change,
                  MkbSegmentSet changed = kAllMkbSegments);
  // The same from whole-pool SaveViews text: splits it into buckets and
  // shares every bucket that renders byte-identically to the tip's.
  uint64_t Commit(std::shared_ptr<const Mkb> mkb, std::string_view views_text,
                  std::string change);
  // Undoes every Commit made since `tip` (a pin of this store's tip) was
  // taken: drops the later versions, whose ids the next commits hand out
  // again, and makes `tip` the tip, its MKB included. Pins of the dropped
  // versions stay valid. O(dropped versions).
  void RevertTo(const PinnedMkb& tip);

  uint64_t tip_id() const;
  // The id the next Commit will assign (== number of versions).
  uint64_t NextId() const;
  size_t NumVersions() const;
  bool HasVersion(uint64_t id) const;

  // O(1): shares the already-parsed tip MKB.
  PinnedMkb Tip() const;
  // Pins an arbitrary retained version; non-tip versions reparse the MISD
  // segments (the price of time travel, not of the hot path).
  Result<PinnedMkb> Pin(uint64_t id) const;
  // The serialized view pool frozen at version `id` (its buckets merged).
  Result<std::string> ViewsAt(uint64_t id) const;
  // Snapshot of the chain (shared immutable nodes).
  std::vector<std::shared_ptr<const MkbVersion>> Versions() const;

  // Walks the whole chain verifying segment checksums (each unique segment
  // once), bucket chunk checksums (each unique chunk once), version
  // checksums, segment names, id sequencing and parent links. Never
  // throws; corruption is counted and described. Also consults the
  // mkb.version_store.scrub failpoint so tests can inject a detected
  // finding.
  VersionScrubStats Scrub() const;

  VersionByteStats ByteStats() const;

  // One-line-per-version human summary (SHOW VERSIONS).
  std::string Render() const;

  // Serializes the chain for the checkpoint VERSIONS section and loads it
  // back, verifying every CRC and link; any flipped/missing byte fails.
  // Each distinct segment is written once, and a version lists only the
  // buckets that differ from its parent's (a chunk it shares with its
  // parent lists none).
  std::string Serialize() const;
  static Result<MkbVersionStore> Deserialize(std::string_view text);

  // Testing back doors: deep-copy version `id` (with the chunk involved)
  // and flip one byte of segment `segment`'s body, or one bit of chunk
  // `chunk`'s stored crc, in the copy, so exactly one version is corrupted
  // and shared siblings stay intact. Return false on bad args.
  bool CorruptSegmentForTesting(uint64_t id, size_t segment,
                                size_t byte_offset);
  bool CorruptChunkCrcForTesting(uint64_t id, size_t chunk);

 private:
  static uint32_t VersionCrc(const MkbVersion& version);
  // Builds the node that follows `tip` (nullptr: a v0 with empty buckets):
  // the `changed` MISD segments rendered from `mkb` and the rest shared
  // with the tip (all four when `mkb` is nullptr; a v0 renders all four),
  // the `buckets` handed in, every other bucket shared with the tip. Runs
  // without the store mutex.
  static std::shared_ptr<MkbVersion> BuildNode(const MkbVersion* tip,
                                               const Mkb* mkb,
                                               MkbSegmentSet changed,
                                               ViewBucketBodies buckets,
                                               std::string change);
  std::shared_ptr<const MkbVersion> NodeAt(uint64_t id) const;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const MkbVersion>> versions_;
  std::shared_ptr<const Mkb> tip_mkb_;  // parsed form of the tip version
};

}  // namespace eve

#endif  // EVE_MKB_VERSION_STORE_H_
