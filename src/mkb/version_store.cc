#include "mkb/version_store.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/stable_hash.h"
#include "common/str_util.h"
#include "mkb/serializer.h"

namespace eve {

size_t ViewBucketOf(std::string_view view_name) {
  return static_cast<size_t>(StableHash64(view_name) % kViewBuckets);
}

namespace {

constexpr const char* kMkbSegmentNames[kNumMkbSegments] = {
    "RELATIONS", "JOINS", "FUNCTIONS", "PCS"};
constexpr char kViewBucketSegmentName[] = "VIEWS";

// Change descriptions live on one line of the VERSIONS section, so any
// embedded newline would break the framing.
std::string SanitizeChange(std::string change) {
  std::replace(change.begin(), change.end(), '\n', ' ');
  std::replace(change.begin(), change.end(), '\r', ' ');
  return change;
}

using SegmentPtr = std::shared_ptr<const MkbVersionSegment>;
using BucketChunks =
    std::array<std::shared_ptr<const MkbBucketChunk>, kBucketChunks>;

SegmentPtr MakeSegment(const char* name, std::string body) {
  auto segment = std::make_shared<MkbVersionSegment>();
  segment->name = name;
  segment->crc = Crc32(body);
  segment->body = std::move(body);
  return segment;
}

// Every empty bucket of every version is this one segment, so a small pool
// costs one pointer per empty bucket and the VERSIONS section writes it once.
const SegmentPtr& EmptyViewBucket() {
  static const SegmentPtr kEmpty = MakeSegment(kViewBucketSegmentName, "");
  return kEmpty;
}

SegmentPtr MakeViewBucket(std::string body) {
  if (body.empty()) return EmptyViewBucket();
  return MakeSegment(kViewBucketSegmentName, std::move(body));
}

// Folds one segment's (name, crc) pair into a running version CRC.
template <typename Segment>
uint32_t PairCrc(const Segment& segment, uint32_t crc) {
  crc = Crc32(segment.name, crc);
  return Crc32(&segment.crc, sizeof(segment.crc), crc);
}

// The length of a chunk's pair run. Every bucket is named VIEWS: buckets
// are built by MakeViewBucket, and Deserialize rejects any other name.
constexpr size_t kChunkRunBytes =
    kChunkBuckets *
    (sizeof(kViewBucketSegmentName) - 1 + sizeof(MkbVersionSegment::crc));

// The CRC of the chunk's pair run, checksummed in one call: 64 calls on
// 5 and 4 bytes cost several times more.
uint32_t ChunkCrc(const MkbBucketChunk& chunk) {
  std::string run;
  run.reserve(kChunkRunBytes);
  for (const SegmentPtr& bucket : chunk.buckets) {
    run += bucket->name;
    run.append(reinterpret_cast<const char*>(&bucket->crc),
               sizeof(bucket->crc));
  }
  return Crc32(run);
}

uint64_t ChunkBytes(const MkbBucketChunk& chunk) {
  uint64_t bytes = 0;
  for (const SegmentPtr& bucket : chunk.buckets) bytes += bucket->body.size();
  return bytes;
}

// A v0 holds only empty buckets, so every chunk of it is this one chunk.
const BucketChunks& EmptyChunks() {
  static const BucketChunks kEmpty = [] {
    auto chunk = std::make_shared<MkbBucketChunk>();
    chunk->buckets.fill(EmptyViewBucket());
    chunk->crc = ChunkCrc(*chunk);
    BucketChunks chunks;
    chunks.fill(std::move(chunk));
    return chunks;
  }();
  return kEmpty;
}

// Copy-on-write edits of a version's buckets: the first change to a chunk
// copies it, and Seal() checksums the copies and installs them, so the
// chunks left alone stay shared.
class BucketEditor {
 public:
  explicit BucketEditor(BucketChunks* chunks) : chunks_(*chunks) {}

  const SegmentPtr& Get(size_t bucket) const {
    const size_t c = bucket / kChunkBuckets;
    const MkbBucketChunk& chunk =
        copies_.at(c) != nullptr ? *copies_[c] : *chunks_[c];
    return chunk.buckets[bucket % kChunkBuckets];
  }

  // Points `bucket` at `segment`; a no-op when it already does.
  void Set(size_t bucket, SegmentPtr segment) {
    if (Get(bucket) == segment) return;
    std::shared_ptr<MkbBucketChunk>& copy = copies_[bucket / kChunkBuckets];
    if (copy == nullptr) {
      copy = std::make_shared<MkbBucketChunk>(*chunks_[bucket / kChunkBuckets]);
    }
    copy->buckets[bucket % kChunkBuckets] = std::move(segment);
  }

  void Seal() {
    for (size_t c = 0; c < kBucketChunks; ++c) {
      if (copies_[c] == nullptr) continue;
      copies_[c]->crc = ChunkCrc(*copies_[c]);
      copies_[c]->bytes = ChunkBytes(*copies_[c]);
      chunks_[c] = std::move(copies_[c]);
    }
  }

 private:
  BucketChunks& chunks_;
  std::array<std::shared_ptr<MkbBucketChunk>, kBucketChunks> copies_;
};

using RunPtr = std::shared_ptr<const MisdRun>;
using MisdPtr = std::shared_ptr<const MkbMisdSegment>;
using RelationLeaf = SortedTable<RelationDef>::Leaf;

CrcSpan SpanOf(const MisdRun& run) { return {run.crc, run.text.size()}; }

CrcSpan Join(const CrcSpan& a, const CrcSpan& b) {
  if (b.bytes == 0) return a;
  if (a.bytes == 0) return b;
  return {Crc32Combine(a.crc, b.crc, b.bytes), a.bytes + b.bytes};
}

// The run of an empty chunk.
const RunPtr& EmptyRun() {
  static const RunPtr kEmpty = std::make_shared<const MisdRun>();
  return kEmpty;
}

// Whether `source` (a segment's weak reference) names `chunk`; reads
// neither.
template <typename Chunk>
bool Names(const std::weak_ptr<const void>& source,
           const std::shared_ptr<Chunk>& chunk) {
  return !source.owner_before(chunk) && !chunk.owner_before(source);
}

// Line `entry` of `run` (its text up to its line end).
std::string_view LineOf(const MisdRun& run, size_t entry) {
  const uint32_t from = entry == 0 ? 0 : run.line_ends[entry - 1];
  return std::string_view(run.text).substr(from, run.line_ends[entry] - from);
}

void AppendLine(const std::string& line, MisdRun* run) {
  run->text += line;
  run->text += '\n';
}

// The run of constraint chunk `chunk`: its lines, copied from `old` (the
// run of `old_chunk`, the chunk at the same position in the tip's MKB)
// for the slots whose item the two chunks share, rendered for the rest.
template <typename T>
MisdRun ConstraintRun(const typename ChunkedSeq<T>::Chunk& chunk,
                      const typename ChunkedSeq<T>::Chunk* old_chunk,
                      const MisdRun* old, std::string (*render)(const T&)) {
  MisdRun run;
  run.line_ends.reserve(ChunkedSeq<T>::kChunkSlots);
  for (size_t slot = 0; slot < ChunkedSeq<T>::kChunkSlots; ++slot) {
    const std::shared_ptr<const T>& item = chunk.slots[slot];
    if (item != nullptr && old != nullptr && old_chunk->slots[slot] == item) {
      run.text += LineOf(*old, slot);
    } else if (item != nullptr) {
      AppendLine(render(*item), &run);
    }
    run.line_ends.push_back(static_cast<uint32_t>(run.text.size()));
  }
  run.crc = Crc32(run.text);
  return run;
}

// The runs of a constraint segment, one per chunk of `seq`: the tip's run
// where the chunk at a position is the one the tip rendered there, else
// the chunk's memoized run.
template <typename T>
void ConstraintRuns(const ChunkedSeq<T>& seq, const MkbMisdSegment* tip,
                    std::string (*render)(const T&), MkbMisdSegment* segment) {
  using Chunk = typename ChunkedSeq<T>::Chunk;
  const std::vector<typename ChunkedSeq<T>::ChunkPtr>& chunks = seq.chunks();
  segment->runs.reserve(chunks.size());
  segment->sources.reserve(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    const typename ChunkedSeq<T>::ChunkPtr& chunk = chunks[c];
    const bool at_tip = tip != nullptr && c < tip->sources.size();
    if (chunk == nullptr) {
      segment->runs.push_back(EmptyRun());
    } else if (at_tip && Names(tip->sources[c], chunk)) {
      segment->runs.push_back(tip->runs[c]);
    } else {
      // The chunk this one replaced, if any MKB still holds it.
      const std::shared_ptr<const void> old =
          at_tip ? tip->sources[c].lock() : nullptr;
      const Chunk* old_chunk = static_cast<const Chunk*>(old.get());
      segment->runs.push_back(chunk->memo.template Get<MisdRun>([&] {
        return ConstraintRun<T>(
            *chunk, old_chunk,
            old_chunk != nullptr ? tip->runs[c].get() : nullptr, render);
      }));
    }
    segment->sources.push_back(chunk);
  }
}

// The runs of the RELATIONS segment, one per catalog leaf: the tip's run
// where the leaf is one the tip rendered (found at the next position, else
// by its first key), else the leaf's memoized run, which copies the line
// of every relation a tip leaf holds unchanged and renders the others.
void RelationRuns(const Catalog& catalog, const MkbMisdSegment* tip,
                  MkbMisdSegment* segment) {
  const SortedTable<RelationDef>& table = catalog.relation_table();
  size_t old_size = tip != nullptr ? tip->sources.size() : 0;
  // The tip's leaves, locked by the first leaf that is not the tip's at
  // its position. If an MKB no longer holds one of them, no tip run lends
  // its lines.
  std::vector<std::shared_ptr<const void>> old_leaves;
  bool locked = false;
  const auto lock_old_leaves = [&] {
    if (locked) return;
    locked = true;
    for (size_t r = 0; r < old_size; ++r) {
      old_leaves.push_back(tip->sources[r].lock());
      if (old_leaves.back() == nullptr) old_size = 0;
    }
  };
  const auto old_leaf = [&](size_t r) {
    return static_cast<const RelationLeaf*>(old_leaves[r].get());
  };
  const auto first_key = [&](size_t r) -> const std::string& {
    return old_leaf(r)->entries.front().first;
  };
  // The last tip leaf whose first key is not after `key`; old_size if none.
  const auto run_holding = [&](const std::string& key) {
    size_t lo = 0;
    size_t hi = old_size;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (key < first_key(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo == 0 ? old_size : lo - 1;
  };
  const auto render = [&](const RelationLeaf& leaf, size_t r) {
    MisdRun run;
    run.line_ends.reserve(leaf.entries.size());
    for (const auto& [name, def] : leaf.entries) {
      // Keys ascend, so the tip leaf holding `name` only moves forward.
      for (size_t n = r == old_size ? 0 : r + 1;
           n < old_size && !(name < first_key(n)); ++n) {
        r = n;
      }
      bool copied = false;
      if (r < old_size) {
        const std::vector<SortedTable<RelationDef>::Entry>& entries =
            old_leaf(r)->entries;
        const auto it = std::lower_bound(
            entries.begin(), entries.end(), name,
            [](const auto& entry, const std::string& key) {
              return entry.first < key;
            });
        if (it != entries.end() && it->first == name && it->second == def) {
          run.text += LineOf(*tip->runs[r],
                             static_cast<size_t>(it - entries.begin()));
          copied = true;
        }
      }
      if (!copied) AppendLine(RenderRelationMisd(*def), &run);
      run.line_ends.push_back(static_cast<uint32_t>(run.text.size()));
    }
    run.crc = Crc32(run.text);
    return run;
  };
  segment->runs.reserve(table.leaves().size());
  segment->sources.reserve(table.leaves().size());
  size_t next = 0;  // the tip leaf the next leaf is expected to be
  for (const SortedTable<RelationDef>::LeafPtr& leaf : table.leaves()) {
    if (next < old_size && Names(tip->sources[next], leaf)) {
      segment->runs.push_back(tip->runs[next++]);
    } else {
      lock_old_leaves();
      const size_t r = run_holding(leaf->entries.front().first);
      if (r < old_size) next = r + 1;
      segment->runs.push_back(
          r < old_size && Names(tip->sources[r], leaf)
              ? tip->runs[r]
              : leaf->memo.Get<MisdRun>([&] { return render(*leaf, r); }));
    }
    segment->sources.push_back(leaf);
  }
}

// Sets `segment`'s spans, crc and bytes from its runs. With a `tip` of as
// many runs, its spans are copied and only the ancestors of the runs that
// differ are recombined.
void SealSegment(const MkbMisdSegment* tip, MkbMisdSegment* segment) {
  const size_t n = segment->runs.size();
  size_t width = 1;
  while (width < n) width <<= 1;
  std::vector<CrcSpan>& spans = segment->spans;
  if (tip != nullptr && tip->runs.size() == n &&
      tip->spans.size() == 2 * width) {
    spans = tip->spans;
    std::vector<size_t> level;  // the nodes to recombine, ascending
    for (size_t i = 0; i < n; ++i) {
      if (segment->runs[i] == tip->runs[i]) continue;
      spans[width + i] = SpanOf(*segment->runs[i]);
      level.push_back((width + i) / 2);
    }
    while (!level.empty() && level.front() >= 1) {
      level.erase(std::unique(level.begin(), level.end()), level.end());
      for (const size_t node : level) {
        spans[node] = Join(spans[2 * node], spans[2 * node + 1]);
      }
      for (size_t& node : level) node /= 2;
    }
  } else {
    spans.assign(2 * width, CrcSpan{});
    for (size_t i = 0; i < n; ++i) spans[width + i] = SpanOf(*segment->runs[i]);
    for (size_t node = width - 1; node >= 1; --node) {
      spans[node] = Join(spans[2 * node], spans[2 * node + 1]);
    }
  }
  segment->crc = spans[1].crc;
  segment->bytes = spans[1].bytes;
}

// MISD segment `i` of `mkb`, built on the tip's segment: runs whose chunk
// the MKB still holds are kept, and a segment that comes out
// byte-identical to the tip's is the tip's.
MisdPtr BuildMisdSegment(const Mkb& mkb, size_t i, const MisdPtr& tip) {
  const MkbMisdSegment* mirrored =
      tip != nullptr && !tip->sources.empty() ? tip.get() : nullptr;
  auto segment = std::make_shared<MkbMisdSegment>();
  segment->name = kMkbSegmentNames[i];
  switch (i) {
    case kRelationsSegment:
      RelationRuns(mkb.catalog(), mirrored, segment.get());
      break;
    case kJoinsSegment:
      ConstraintRuns(mkb.join_constraints(), mirrored, RenderJoinMisd,
                     segment.get());
      break;
    case kFunctionsSegment:
      ConstraintRuns(mkb.function_of_constraints(), mirrored,
                     RenderFunctionMisd, segment.get());
      break;
    case kPcsSegment:
      ConstraintRuns(mkb.pc_constraints(), mirrored, RenderPcMisd,
                     segment.get());
      break;
  }
  SealSegment(mirrored, segment.get());
  if (tip != nullptr && (segment->runs == tip->runs ||
                         (segment->crc == tip->crc &&
                          segment->bytes == tip->bytes &&
                          segment->Text() == tip->Text()))) {
    return tip;
  }
  return segment;
}

// A MISD segment read from a checkpoint: one run of the whole text.
MisdPtr MisdFromText(const MkbVersionSegment& segment) {
  auto run = std::make_shared<MisdRun>();
  run->text = segment.body;
  run->crc = segment.crc;
  auto misd = std::make_shared<MkbMisdSegment>();
  misd->name = segment.name;
  misd->runs.push_back(std::move(run));
  misd->spans = {CrcSpan{}, CrcSpan{segment.crc, segment.body.size()}};
  misd->crc = segment.crc;
  misd->bytes = segment.body.size();
  return misd;
}

const char* SegmentNameAt(size_t slot) {
  return slot < kNumMkbSegments ? kMkbSegmentNames[slot]
                                : kViewBucketSegmentName;
}

// Every bucket of whole-pool SaveViews text, empty ones included, so a
// commit from text re-examines (and empties) buckets the text no longer
// fills.
ViewBucketBodies BucketsOfText(std::string_view views_text) {
  ViewBucketBodies buckets;
  for (size_t bucket = 0; bucket < kViewBuckets; ++bucket) buckets[bucket];
  for (const ViewBlock& block : SplitViewBlocks(views_text)) {
    buckets[ViewBucketOf(block.name)].append(block.text);
  }
  return buckets;
}

// Offset of the next "-- VIEW " header at a line start at or after `from`.
size_t FindViewHeader(std::string_view text, size_t from) {
  constexpr std::string_view kHeader = "-- VIEW ";
  while (true) {
    const size_t hit = text.find(kHeader, from);
    if (hit == std::string_view::npos || hit == 0 || text[hit - 1] == '\n') {
      return hit;
    }
    from = hit + 1;
  }
}

// Offset of the ';' ending the statement that starts at `from`: the first
// one outside '...' literals and "..." identifiers (a doubled quote inside
// either closes and reopens it). npos when there is none.
size_t StatementEnd(std::string_view text, size_t from) {
  while (true) {
    const size_t hit = text.find_first_of(";'\"", from);
    if (hit == std::string_view::npos || text[hit] == ';') return hit;
    const size_t close = text.find(text[hit], hit + 1);
    if (close == std::string_view::npos) return close;
    from = close + 1;
  }
}

// The view name of "CREATE VIEW <name> ...", undoing the printer's
// double-quote escaping of non-plain identifiers.
std::string ViewNameOf(std::string_view definition) {
  constexpr std::string_view kPrefix = "CREATE VIEW ";
  if (definition.substr(0, kPrefix.size()) != kPrefix) return "";
  const std::string_view rest = definition.substr(kPrefix.size());
  if (!rest.empty() && rest[0] == '"') {
    std::string name;
    for (size_t i = 1; i < rest.size(); ++i) {
      if (rest[i] != '"') {
        name += rest[i];
      } else if (i + 1 < rest.size() && rest[i + 1] == '"') {
        name += '"';
        ++i;
      } else {
        break;
      }
    }
    return name;
  }
  return std::string(rest.substr(0, rest.find_first_of(" \t\n(")));
}

std::string ToHex(uint32_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

bool ParseHex32(std::string_view word, uint32_t* out) {
  if (word.empty() || word.size() > 8) return false;
  uint32_t value = 0;
  for (const char c : word) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<ViewBlock> SplitViewBlocks(std::string_view views_text) {
  constexpr size_t kNpos = std::string_view::npos;
  std::vector<ViewBlock> blocks;
  size_t pos = FindViewHeader(views_text, 0);
  while (pos != kNpos) {
    ViewBlock block;
    // The block starts with the 8-byte "-- VIEW " header prefix.
    const size_t header_end =
        std::min(views_text.find('\n', pos), views_text.size());
    block.header = Trim(views_text.substr(pos + 8, header_end - pos - 8));
    block.active = block.header.substr(0, 8) != "disabled";
    const size_t body = std::min(header_end + 1, views_text.size());
    const size_t end = StatementEnd(views_text, body);
    block.terminated = end != kNpos;
    block.definition =
        Trim(views_text.substr(body, std::min(end, views_text.size()) - body));
    block.name = ViewNameOf(block.definition);
    const size_t next =
        block.terminated ? FindViewHeader(views_text, end + 1) : kNpos;
    block.text = views_text.substr(pos, next == kNpos ? kNpos : next - pos);
    blocks.push_back(std::move(block));
    pos = next;
  }
  return blocks;
}

std::vector<ViewBlock> VersionViewBlocks(const MkbVersion& version) {
  std::vector<ViewBlock> blocks;
  for (size_t bucket = 0; bucket < kViewBuckets; ++bucket) {
    std::vector<ViewBlock> part =
        SplitViewBlocks(version.view_bucket(bucket).body);
    blocks.insert(blocks.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const ViewBlock& a, const ViewBlock& b) {
              return a.name < b.name;
            });
  return blocks;
}

std::string MkbMisdSegment::Text() const {
  std::string text;
  text.reserve(bytes);
  for (const RunPtr& run : runs) text += run->text;
  return text;
}

uint64_t MkbVersion::bytes() const {
  uint64_t total = 0;
  for (const MisdPtr& segment : misd) total += segment->bytes;
  for (const auto& chunk : chunks) total += chunk->bytes;
  return total;
}

std::string VersionScrubStats::ToString() const {
  std::ostringstream os;
  os << "versions=" << versions_checked << " segments=" << segments_checked
     << " shared=" << segments_shared << " corruptions=" << corruptions;
  for (const std::string& finding : findings) {
    os << "\n  scrub: " << finding;
  }
  return os.str();
}

MkbVersionStore::MkbVersionStore(const MkbVersionStore& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  versions_ = other.versions_;
  tip_mkb_ = other.tip_mkb_;
}

MkbVersionStore& MkbVersionStore::operator=(const MkbVersionStore& other) {
  if (this == &other) return *this;
  std::vector<std::shared_ptr<const MkbVersion>> versions;
  std::shared_ptr<const Mkb> tip;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    versions = other.versions_;
    tip = other.tip_mkb_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  versions_ = std::move(versions);
  tip_mkb_ = std::move(tip);
  return *this;
}

std::shared_ptr<MkbVersion> MkbVersionStore::BuildNode(
    const MkbVersion* tip, const Mkb* mkb, MkbSegmentSet changed,
    ViewBucketBodies buckets, std::string change) {
  auto node = std::make_shared<MkbVersion>();
  node->id = tip == nullptr ? 0 : tip->id + 1;
  node->parent = tip == nullptr ? 0 : tip->id;
  node->change = SanitizeChange(std::move(change));
  // A view-pool-only commit (same MKB object) re-renders no MISD segment;
  // a v0 has no tip to share with and renders them all.
  if (mkb == nullptr) changed.reset();
  if (tip == nullptr) changed = kAllMkbSegments;
  for (size_t i = 0; i < kNumMkbSegments; ++i) {
    node->misd[i] =
        changed[i] ? BuildMisdSegment(*mkb, i,
                                      tip != nullptr ? tip->misd[i] : nullptr)
                   : tip->misd[i];
  }
  // Only the chunks holding a re-rendered bucket are copied.
  node->chunks = tip != nullptr ? tip->chunks : EmptyChunks();
  BucketEditor editor(&node->chunks);
  for (auto& [bucket, body] : buckets) {
    if (editor.Get(bucket)->body != body) {
      editor.Set(bucket, MakeViewBucket(std::move(body)));
    }
  }
  editor.Seal();
  node->crc = VersionCrc(*node);
  return node;
}

void MkbVersionStore::Reset(std::shared_ptr<const Mkb> mkb,
                            std::string_view views_text, std::string change) {
  std::shared_ptr<const MkbVersion> node =
      BuildNode(nullptr, mkb.get(), kAllMkbSegments, BucketsOfText(views_text),
                std::move(change));
  std::lock_guard<std::mutex> lock(mu_);
  versions_.assign(1, std::move(node));
  tip_mkb_ = std::move(mkb);
}

uint64_t MkbVersionStore::Commit(std::shared_ptr<const Mkb> mkb,
                                 ViewBucketBodies buckets, std::string change,
                                 MkbSegmentSet changed) {
  std::shared_ptr<const MkbVersion> tip;
  bool same_mkb = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!versions_.empty()) tip = versions_.back();
    same_mkb = tip != nullptr && mkb.get() == tip_mkb_.get();
  }
  // Rendering runs unlocked: readers pinning the tip never wait on it.
  std::shared_ptr<const MkbVersion> node =
      BuildNode(tip.get(), same_mkb ? nullptr : mkb.get(), changed,
                std::move(buckets), std::move(change));
  const uint64_t id = node->id;
  std::lock_guard<std::mutex> lock(mu_);
  versions_.push_back(std::move(node));
  tip_mkb_ = std::move(mkb);
  return id;
}

uint64_t MkbVersionStore::Commit(std::shared_ptr<const Mkb> mkb,
                                 std::string_view views_text,
                                 std::string change) {
  return Commit(std::move(mkb), BucketsOfText(views_text), std::move(change));
}

void MkbVersionStore::RevertTo(const PinnedMkb& tip) {
  std::lock_guard<std::mutex> lock(mu_);
  versions_.resize(tip.id() + 1);
  tip_mkb_ = tip.mkb;
}

uint64_t MkbVersionStore::tip_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.empty() ? 0 : versions_.back()->id;
}

uint64_t MkbVersionStore::NextId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.size();
}

size_t MkbVersionStore::NumVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.size();
}

bool MkbVersionStore::HasVersion(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < versions_.size();
}

PinnedMkb MkbVersionStore::Tip() const {
  std::lock_guard<std::mutex> lock(mu_);
  PinnedMkb pinned;
  if (!versions_.empty()) {
    pinned.version = versions_.back();
    pinned.mkb = tip_mkb_;
  }
  return pinned;
}

std::shared_ptr<const MkbVersion> MkbVersionStore::NodeAt(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= versions_.size()) return nullptr;
  return versions_[id];
}

Result<PinnedMkb> MkbVersionStore::Pin(uint64_t id) const {
  std::shared_ptr<const MkbVersion> node;
  std::shared_ptr<const Mkb> tip;
  uint64_t tip_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= versions_.size()) {
      return Status::NotFound("no version " + std::to_string(id) +
                              " (retained: 0.." +
                              std::to_string(versions_.size()) + ")");
    }
    node = versions_[id];
    tip = tip_mkb_;
    tip_version = versions_.back()->id;
  }
  if (id == tip_version) return PinnedMkb{std::move(node), std::move(tip)};
  std::string text;
  for (const MisdPtr& segment : node->misd) text += segment->Text();
  Result<Mkb> mkb = LoadMkb(text);
  if (!mkb.ok()) {
    return Status::Internal("version " + std::to_string(id) +
                            " MISD segments do not reparse: " +
                            mkb.status().ToString());
  }
  return PinnedMkb{std::move(node),
                   std::make_shared<const Mkb>(mkb.MoveValue())};
}

Result<std::string> MkbVersionStore::ViewsAt(uint64_t id) const {
  const std::shared_ptr<const MkbVersion> node = NodeAt(id);
  if (node == nullptr) {
    return Status::NotFound("no version " + std::to_string(id));
  }
  std::string text;
  for (const ViewBlock& block : VersionViewBlocks(*node)) text += block.text;
  return text;
}

std::vector<std::shared_ptr<const MkbVersion>> MkbVersionStore::Versions()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

uint32_t MkbVersionStore::VersionCrc(const MkbVersion& version) {
  static const Crc32Combiner kChunkRun(kChunkRunBytes);
  const std::string head = std::to_string(version.id) + "|" +
                           std::to_string(version.parent) + "|" +
                           version.change;
  uint32_t crc = Crc32(head);
  for (const MisdPtr& segment : version.misd) crc = PairCrc(*segment, crc);
  // The bucket pairs, a chunk's run at a time: the value is the CRC of the
  // whole run of kNumVersionSegments pairs.
  for (const auto& chunk : version.chunks) {
    crc = kChunkRun.Combine(crc, chunk->crc);
  }
  return crc;
}

VersionScrubStats MkbVersionStore::Scrub() const {
  const std::vector<std::shared_ptr<const MkbVersion>> versions = Versions();
  VersionScrubStats stats;
  const auto finding = [&stats](const MkbVersion& version,
                                const std::string& what) {
    ++stats.corruptions;
    stats.findings.push_back("version " + std::to_string(version.id) + " " +
                             what);
  };
  // Versions share most segments, runs and chunks; each distinct one is
  // checked once.
  std::unordered_set<const MkbVersionSegment*> verified;
  std::unordered_set<const MkbMisdSegment*> verified_misd;
  std::unordered_set<const MisdRun*> verified_runs;
  std::unordered_set<const MkbBucketChunk*> verified_chunks;
  const auto check_segment = [&](const MkbVersion& version, size_t s,
                                 const MkbVersionSegment& segment) {
    const std::string where =
        s < kNumMkbSegments ? "segment " + std::to_string(s)
                            : "bucket " + std::to_string(s - kNumMkbSegments);
    if (segment.name != SegmentNameAt(s)) {
      finding(version, where + " named '" + segment.name + "', want '" +
                           SegmentNameAt(s) + "'");
    }
    if (verified.insert(&segment).second &&
        Crc32(segment.body) != segment.crc) {
      finding(version,
              where + " (" + segment.name + ") body fails its checksum");
    }
  };
  const MkbVersion* parent = nullptr;
  for (size_t i = 0; i < versions.size(); ++i) {
    const MkbVersion& version = *versions[i];
    ++stats.versions_checked;
    // Tests arm this site to inject a finding (error action) or kill the
    // scrubber mid-walk (crash action); the chain itself is untouched.
    const Status injected =
        Failpoints::Instance().Hit(fp::kVersionScrub);
    if (!injected.ok()) {
      finding(version, "injected fault: " + injected.ToString());
    }
    if (version.id != i) {
      ++stats.corruptions;
      stats.findings.push_back("version at index " + std::to_string(i) +
                               " has id " + std::to_string(version.id));
    }
    const uint64_t expected_parent = i == 0 ? 0 : i - 1;
    if (version.parent != expected_parent) {
      finding(version, "parent link " + std::to_string(version.parent) +
                           " != " + std::to_string(expected_parent));
    }
    for (size_t s = 0; s < kNumMkbSegments; ++s) {
      ++stats.segments_checked;
      if (parent != nullptr && version.misd[s] == parent->misd[s]) {
        ++stats.segments_shared;
      }
      const MkbMisdSegment& segment = *version.misd[s];
      const std::string where = "segment " + std::to_string(s);
      if (segment.name != kMkbSegmentNames[s]) {
        finding(version, where + " named '" + segment.name + "', want '" +
                             kMkbSegmentNames[s] + "'");
      }
      if (!verified_misd.insert(&segment).second) continue;
      // Every run holds its CRC, and the runs concatenate to the segment's.
      bool intact = true;
      CrcSpan whole;
      for (const RunPtr& run : segment.runs) {
        if (verified_runs.insert(run.get()).second &&
            Crc32(run->text) != run->crc) {
          intact = false;
        }
        whole = Join(whole, SpanOf(*run));
      }
      if (!intact || whole.crc != segment.crc ||
          whole.bytes != segment.bytes) {
        finding(version,
                where + " (" + segment.name + ") body fails its checksum");
      }
    }
    // A chunk changes only where a bucket pointer does, so sharing every
    // chunk is sharing every bucket.
    bool views_shared = parent != nullptr;
    for (size_t c = 0; c < kBucketChunks; ++c) {
      const MkbBucketChunk& chunk = *version.chunks[c];
      if (parent == nullptr || version.chunks[c] != parent->chunks[c]) {
        views_shared = false;
      }
      if (!verified_chunks.insert(&chunk).second) continue;
      for (size_t k = 0; k < kChunkBuckets; ++k) {
        check_segment(version, kNumMkbSegments + c * kChunkBuckets + k,
                      *chunk.buckets[k]);
      }
      if (ChunkCrc(chunk) != chunk.crc) {
        finding(version,
                "bucket chunk " + std::to_string(c) + " fails its checksum");
      }
    }
    // The VIEWS buckets count as one segment, as in an unbucketed chain.
    ++stats.segments_checked;
    if (views_shared) ++stats.segments_shared;
    if (VersionCrc(version) != version.crc) {
      finding(version, "fails its version checksum");
    }
    parent = &version;
  }
  return stats;
}

VersionByteStats MkbVersionStore::ByteStats() const {
  const std::vector<std::shared_ptr<const MkbVersion>> versions = Versions();
  VersionByteStats stats;
  std::unordered_set<const void*> seen;
  for (const auto& version : versions) {
    stats.logical_bytes += version->bytes();
    for (const MisdPtr& segment : version->misd) {
      if (!seen.insert(segment.get()).second) continue;
      for (const RunPtr& run : segment->runs) {
        if (seen.insert(run.get()).second) {
          stats.retained_bytes += run->text.size();
        }
      }
    }
    for (const auto& chunk : version->chunks) {
      if (!seen.insert(chunk.get()).second) continue;
      for (const SegmentPtr& bucket : chunk->buckets) {
        if (seen.insert(bucket.get()).second) {
          stats.retained_bytes += bucket->body.size();
        }
      }
    }
  }
  return stats;
}

std::string MkbVersionStore::Render() const {
  const std::vector<std::shared_ptr<const MkbVersion>> versions = Versions();
  std::ostringstream os;
  for (const auto& version : versions) {
    os << "  v" << version->id;
    if (version->id != version->parent) os << " <- v" << version->parent;
    os << "  crc=" << ToHex(version->crc) << " bytes=" << version->bytes()
       << "  " << version->change << "\n";
  }
  return os.str();
}

std::string MkbVersionStore::Serialize() const {
  const std::vector<std::shared_ptr<const MkbVersion>> versions = Versions();
  // Each distinct segment is written once, and versions reference it by
  // table index. Segments are deduplicated by content, not just pointer, so
  // no two table entries are interchangeable: retargeting any reference
  // changes some checksum. Entry 0 is always the empty bucket, which every
  // bucket of a version before v0 is taken to hold.
  // A MISD segment is written as the concatenation of its runs.
  struct Entry {
    std::string_view name;
    std::string_view body;
    uint32_t crc;
  };
  const MkbVersionSegment& empty = *EmptyViewBucket();
  std::vector<Entry> table = {{empty.name, empty.body, empty.crc}};
  std::unordered_map<const void*, size_t> by_pointer = {{&empty, 0}};
  std::map<std::pair<std::string_view, std::string_view>, size_t> by_content =
      {{{empty.name, empty.body}, 0}};
  std::deque<std::string> misd_texts;  // the bodies of the MISD entries
  const auto intern = [&](const void* segment, const Entry& entry) {
    const auto [it, added] =
        by_content.emplace(std::make_pair(entry.name, entry.body), table.size());
    if (added) table.push_back(entry);
    by_pointer.emplace(segment, it->second);
    return it->second;
  };
  const auto intern_bucket = [&](const MkbVersionSegment& segment) {
    const auto hit = by_pointer.find(&segment);
    if (hit != by_pointer.end()) return hit->second;
    return intern(&segment, {segment.name, segment.body, segment.crc});
  };
  const auto intern_misd = [&](const MkbMisdSegment& segment) {
    const auto hit = by_pointer.find(&segment);
    if (hit != by_pointer.end()) return hit->second;
    const std::string& body = misd_texts.emplace_back(segment.Text());
    const size_t index = intern(&segment, {segment.name, body, segment.crc});
    if (table[index].body.data() != body.data()) misd_texts.pop_back();
    return index;
  };
  // A version lists the MISD segments, then only the buckets whose segment
  // differs from its parent's.
  std::vector<size_t> bucket_index(kViewBuckets, 0);
  const MkbVersion* parent = nullptr;
  std::ostringstream lines;
  for (const auto& version : versions) {
    lines << "VERSION " << version->id << " " << version->parent << " "
          << ToHex(version->crc) << " MKB";
    for (const MisdPtr& segment : version->misd) {
      lines << " " << intern_misd(*segment);
    }
    lines << " VIEWS";
    for (size_t c = 0; c < kBucketChunks; ++c) {
      const MkbBucketChunk* parent_chunk =
          parent != nullptr ? parent->chunks[c].get() : nullptr;
      const MkbBucketChunk& chunk = *version->chunks[c];
      if (&chunk == parent_chunk) continue;
      for (size_t k = 0; k < kChunkBuckets; ++k) {
        const SegmentPtr& segment = chunk.buckets[k];
        if (parent_chunk != nullptr && segment == parent_chunk->buckets[k]) {
          continue;
        }
        const size_t b = c * kChunkBuckets + k;
        const size_t index = intern_bucket(*segment);
        if (index == bucket_index[b]) continue;
        bucket_index[b] = index;
        lines << " " << b << "=" << index;
      }
    }
    lines << " CHANGE " << version->change << "\n";
    parent = version.get();
  }
  std::ostringstream os;
  os << "BUCKETS " << kViewBuckets << "\n";
  for (size_t i = 0; i < table.size(); ++i) {
    const Entry& segment = table[i];
    os << "SEGMENT " << i << " " << segment.name << " "
       << segment.body.size() << " " << ToHex(segment.crc) << "\n"
       << segment.body << "\n";
  }
  os << lines.str();
  return os.str();
}

Result<MkbVersionStore> MkbVersionStore::Deserialize(std::string_view text) {
  const std::string buckets_line = "BUCKETS " + std::to_string(kViewBuckets);
  if (text.substr(0, text.find('\n')) != buckets_line) {
    return Status::ParseError(
        "VERSIONS: section does not start with '" + buckets_line +
        "' (it was written before the VIEWS segment was split into " +
        std::to_string(kViewBuckets) + " buckets, or is corrupt)");
  }
  std::vector<SegmentPtr> table;
  std::unordered_map<const MkbVersionSegment*, MisdPtr> misd_of;
  std::vector<std::shared_ptr<const MkbVersion>> versions;
  // The buckets of the last version read; each VERSION line edits them.
  BucketChunks chunks = EmptyChunks();
  size_t pos = buckets_line.size() + 1;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string line(text.substr(pos, eol - pos));
    // A final line without '\n' puts eol at text.size(); don't step past
    // the end (the unsigned `text.size() - pos` below would underflow).
    pos = std::min(eol + 1, text.size());
    if (Trim(line).empty()) continue;
    std::istringstream is(line);
    std::string keyword;
    is >> keyword;
    if (keyword == "SEGMENT") {
      std::string index_word, name, len_word, crc_word;
      if (!(is >> index_word >> name >> len_word >> crc_word)) {
        return Status::ParseError("VERSIONS: malformed SEGMENT header: " +
                                  line);
      }
      uint64_t index = 0, len = 0;
      uint32_t crc = 0;
      if (!ParseDecimal(index_word, &index) || !ParseDecimal(len_word, &len) ||
          !ParseHex32(crc_word, &crc)) {
        return Status::ParseError("VERSIONS: malformed SEGMENT header: " +
                                  line);
      }
      if (index != table.size()) {
        return Status::ParseError("VERSIONS: SEGMENT index " + index_word +
                                  " out of sequence");
      }
      if (len > text.size() - pos) {
        return Status::ParseError("VERSIONS: SEGMENT " + index_word +
                                  " length " + len_word +
                                  " overruns the section");
      }
      auto segment = std::make_shared<MkbVersionSegment>();
      segment->name = name;
      segment->body = std::string(text.substr(pos, len));
      segment->crc = crc;
      if (Crc32(segment->body) != crc) {
        return Status::ParseError("VERSIONS: SEGMENT " + index_word + " (" +
                                  name + ") fails its checksum");
      }
      pos += len;
      // Strict framing: the body must be immediately newline-terminated.
      // A flipped separator byte is corruption, not tolerable whitespace —
      // the mutation-fuzz suite demands every single-byte flip is caught.
      if (pos < text.size()) {
        if (text[pos] != '\n') {
          return Status::ParseError("VERSIONS: SEGMENT " + index_word +
                                    " body is not newline-terminated");
        }
        ++pos;
      }
      if (index == 0) {
        if (segment->name != kViewBucketSegmentName ||
            !segment->body.empty()) {
          return Status::ParseError(
              "VERSIONS: SEGMENT 0 must be the empty VIEWS bucket");
        }
        table.push_back(EmptyViewBucket());
        continue;
      }
      table.push_back(std::move(segment));
    } else if (keyword == "VERSION") {
      std::string id_word, parent_word, crc_word, mkb_keyword;
      if (!(is >> id_word >> parent_word >> crc_word >> mkb_keyword) ||
          mkb_keyword != "MKB") {
        return Status::ParseError("VERSIONS: malformed VERSION line: " + line);
      }
      uint64_t id = 0, parent = 0;
      uint32_t crc = 0;
      if (!ParseDecimal(id_word, &id) || !ParseDecimal(parent_word, &parent) ||
          !ParseHex32(crc_word, &crc) || table.empty()) {
        return Status::ParseError("VERSIONS: malformed VERSION line: " + line);
      }
      auto node = std::make_shared<MkbVersion>();
      node->id = id;
      node->parent = parent;
      node->crc = crc;
      // Resolves a segment reference for slot `s` of the version.
      const auto resolve = [&](const std::string& word, size_t s,
                               SegmentPtr* out) -> Status {
        uint64_t seg_index = 0;
        if (!ParseDecimal(word, &seg_index) || seg_index >= table.size()) {
          return Status::ParseError("VERSIONS: VERSION " + id_word +
                                    " references unknown segment " + word);
        }
        if (table[seg_index]->name != SegmentNameAt(s)) {
          return Status::ParseError(
              "VERSIONS: VERSION " + id_word + " segment " +
              std::to_string(s) + " is '" + table[seg_index]->name +
              "', want '" + SegmentNameAt(s) + "'");
        }
        *out = table[seg_index];
        return Status::OK();
      };
      std::string word;
      for (size_t i = 0; i < kNumMkbSegments; ++i) {
        if (!(is >> word)) {
          return Status::ParseError("VERSIONS: VERSION " + id_word +
                                    " lists too few MKB segments");
        }
        SegmentPtr segment;
        EVE_RETURN_IF_ERROR(resolve(word, i, &segment));
        // Versions naming one table entry share one MISD segment.
        MisdPtr& misd = misd_of[segment.get()];
        if (misd == nullptr) misd = MisdFromText(*segment);
        node->misd[i] = misd;
      }
      if (!(is >> word) || word != "VIEWS") {
        return Status::ParseError("VERSIONS: VERSION " + id_word +
                                  " missing VIEWS after its MKB segments");
      }
      // Listed buckets, strictly increasing, override the parent's.
      BucketEditor editor(&chunks);
      size_t next_bucket = 0;
      while (is >> word && word != "CHANGE") {
        const size_t eq = word.find('=');
        uint64_t bucket = 0;
        if (eq == std::string::npos ||
            !ParseDecimal(std::string_view(word).substr(0, eq), &bucket) ||
            bucket < next_bucket || bucket >= kViewBuckets) {
          return Status::ParseError("VERSIONS: VERSION " + id_word +
                                    " has malformed bucket entry " + word);
        }
        SegmentPtr segment;
        EVE_RETURN_IF_ERROR(resolve(word.substr(eq + 1),
                                    kNumMkbSegments + bucket, &segment));
        editor.Set(bucket, std::move(segment));
        next_bucket = bucket + 1;
      }
      if (word != "CHANGE") {
        return Status::ParseError("VERSIONS: VERSION " + id_word +
                                  " missing CHANGE");
      }
      editor.Seal();
      node->chunks = chunks;
      std::string change;
      std::getline(is, change);
      // Strip only the single separator space and keep the rest verbatim:
      // trimming would also eat a flipped trailing separator byte before
      // the version checksum could catch it.
      if (!change.empty() && change.front() == ' ') change.erase(0, 1);
      node->change = std::move(change);
      if (id != versions.size()) {
        return Status::ParseError("VERSIONS: VERSION " + id_word +
                                  " out of sequence");
      }
      const uint64_t expected_parent = id == 0 ? 0 : id - 1;
      if (parent != expected_parent) {
        return Status::ParseError("VERSIONS: VERSION " + id_word +
                                  " parent link " + parent_word + " != " +
                                  std::to_string(expected_parent));
      }
      if (VersionCrc(*node) != crc) {
        return Status::ParseError("VERSIONS: VERSION " + id_word +
                                  " fails its version checksum");
      }
      versions.push_back(std::move(node));
    } else {
      return Status::ParseError("VERSIONS: unexpected line: " + line);
    }
  }
  if (versions.empty()) {
    return Status::ParseError("VERSIONS: section holds no versions");
  }
  MkbVersionStore store;
  std::string tip_text;
  for (const MisdPtr& segment : versions.back()->misd) {
    tip_text += segment->Text();
  }
  Result<Mkb> tip_mkb = LoadMkb(tip_text);
  if (!tip_mkb.ok()) {
    return Status::ParseError("VERSIONS: tip MISD segments do not reparse: " +
                              tip_mkb.status().ToString());
  }
  store.versions_ = std::move(versions);
  store.tip_mkb_ = std::make_shared<const Mkb>(tip_mkb.MoveValue());
  return store;
}

bool MkbVersionStore::CorruptSegmentForTesting(uint64_t id, size_t segment,
                                               size_t byte_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= versions_.size() || segment >= kNumVersionSegments) return false;
  auto corrupt_version = std::make_shared<MkbVersion>(*versions_[id]);
  if (segment < kNumMkbSegments) {
    const MkbMisdSegment& victim = *versions_[id]->misd[segment];
    if (byte_offset >= victim.bytes) return false;
    auto corrupt_segment = std::make_shared<MkbMisdSegment>(victim);
    for (RunPtr& run : corrupt_segment->runs) {
      if (byte_offset >= run->text.size()) {
        byte_offset -= run->text.size();
        continue;
      }
      auto corrupt_run = std::make_shared<MisdRun>(*run);
      corrupt_run->text[byte_offset] =
          static_cast<char>(corrupt_run->text[byte_offset] ^ 0x40);
      run = std::move(corrupt_run);
      break;
    }
    corrupt_version->misd[segment] = std::move(corrupt_segment);
  } else {
    const MkbVersionSegment& victim =
        versions_[id]->view_bucket(segment - kNumMkbSegments);
    if (byte_offset >= victim.body.size()) return false;
    auto corrupt_segment = std::make_shared<MkbVersionSegment>(victim);
    corrupt_segment->body[byte_offset] =
        static_cast<char>(corrupt_segment->body[byte_offset] ^ 0x40);
    BucketEditor editor(&corrupt_version->chunks);
    editor.Set(segment - kNumMkbSegments, std::move(corrupt_segment));
    editor.Seal();
  }
  // The node keeps its recorded crcs, which no longer match the body — the
  // scrubber must flag the segment.
  versions_[id] = std::move(corrupt_version);
  return true;
}

bool MkbVersionStore::CorruptChunkCrcForTesting(uint64_t id, size_t chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= versions_.size() || chunk >= kBucketChunks) return false;
  auto corrupt_chunk =
      std::make_shared<MkbBucketChunk>(*versions_[id]->chunks[chunk]);
  corrupt_chunk->crc ^= 1;
  auto corrupt_version = std::make_shared<MkbVersion>(*versions_[id]);
  corrupt_version->chunks[chunk] = std::move(corrupt_chunk);
  // The version keeps its recorded crc: the scrubber must flag the chunk
  // and the version checksum.
  versions_[id] = std::move(corrupt_version);
  return true;
}

}  // namespace eve
