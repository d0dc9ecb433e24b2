// Persistent tables: immutable, structurally shared containers behind the
// MKB and its catalog. Copying a table copies one pointer; an edit copies
// only the chunks on the path to what it changes and shares every other
// chunk with the table it was copied from, so two versions of a large MKB
// that differ in one relation share all but a few small chunks. Chunks are
// never changed once a table holds them, so any number of threads may read
// a table while another thread edits its own copy.
//
//   PersistentHashMap<V>  string key -> V, unordered, O(1) lookups;
//   SortedTable<V>        string key -> shared V, in key order, O(log n)
//                         lookups, chunked into leaves of at most
//                         kLeafEntries (a two-level B-tree);
//   ChunkedSeq<T>         an append-only sequence of shared T in slots
//                         that never move; erasing empties a slot.
//
// The chunks of SortedTable and ChunkedSeq carry a ChunkMemo: data derived
// from the chunk's entries (the version store keeps each chunk's MISD
// text there), computed once per chunk and shared by every table and
// every version holding the chunk.

#ifndef EVE_COMMON_PERSISTENT_TABLE_H_
#define EVE_COMMON_PERSISTENT_TABLE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eve {

// A value derived from an immutable chunk, computed by the first Get and
// read by any thread after. A copy of the chunk (made to edit it) starts
// without one.
class ChunkMemo {
 public:
  ChunkMemo() = default;
  ChunkMemo(const ChunkMemo&) {}
  ChunkMemo& operator=(const ChunkMemo&) = delete;

  // The memo, made by `make()` (returning a T) on first use; shared, so it
  // can outlive the chunk. Every Get of one chunk must ask for the same T.
  template <typename T, typename Make>
  std::shared_ptr<const T> Get(const Make& make) const {
    std::call_once(once_, [&] { value_ = std::make_shared<const T>(make()); });
    return std::static_pointer_cast<const T>(value_);
  }

 private:
  mutable std::once_flag once_;
  mutable std::shared_ptr<const void> value_;
};

// kFanout^3 buckets in three levels: a lookup hashes the key once and
// follows three pointers; an edit copies one node per level, 3 x kFanout
// pointers, and the bucket.
template <typename V>
class PersistentHashMap {
 public:
  static constexpr size_t kFanout = 16;

  const V* Find(std::string_view key) const {
    const size_t h = std::hash<std::string_view>{}(key);
    const Node* mid = root_ != nullptr ? root_->at(h, 0).get() : nullptr;
    const Leaf* leaf = mid != nullptr ? mid->at(h, 1).get() : nullptr;
    const Bucket* bucket = leaf != nullptr ? leaf->at(h, 2).get() : nullptr;
    if (bucket == nullptr) return nullptr;
    for (const Entry& entry : bucket->entries) {
      if (entry.first == key) return &entry.second;
    }
    return nullptr;
  }

  // Inserts or replaces.
  void Set(const std::string& key, V value) {
    Edit(key, [&](std::vector<Entry>* entries) {
      for (Entry& entry : *entries) {
        if (entry.first == key) {
          entry.second = std::move(value);
          return;
        }
      }
      entries->emplace_back(key, std::move(value));
    });
  }

  // Returns whether `key` was present.
  bool Erase(const std::string& key) {
    if (Find(key) == nullptr) return false;
    Edit(key, [&](std::vector<Entry>* entries) {
      entries->erase(std::find_if(
          entries->begin(), entries->end(),
          [&](const Entry& entry) { return entry.first == key; }));
    });
    return true;
  }

 private:
  using Entry = std::pair<std::string, V>;
  struct Bucket {
    std::vector<Entry> entries;
  };
  // One level of the trie: kFanout children, picked by `level`'s digit of
  // the hash.
  template <typename Child>
  struct Level {
    std::array<std::shared_ptr<const Child>, kFanout> children;
    static size_t Digit(size_t h, int level) {
      for (int i = 0; i < level; ++i) h /= kFanout;
      return h % kFanout;
    }
    const std::shared_ptr<const Child>& at(size_t h, int level) const {
      return children[Digit(h, level)];
    }
    std::shared_ptr<const Child>& at(size_t h, int level) {
      return children[Digit(h, level)];
    }
  };
  using Leaf = Level<Bucket>;
  using Node = Level<Leaf>;
  using Root = Level<Node>;

  // A copy of `node` to edit, or a new one.
  template <typename T>
  static std::shared_ptr<T> Copy(const std::shared_ptr<const T>& node) {
    return node != nullptr ? std::make_shared<T>(*node)
                           : std::make_shared<T>();
  }

  // Copies the path to `key`'s bucket, lets `edit` change the copy's
  // entries and installs the copies.
  template <typename EditFn>
  void Edit(const std::string& key, const EditFn& edit) {
    const size_t h = std::hash<std::string_view>{}(key);
    std::shared_ptr<Root> root = Copy(root_);
    std::shared_ptr<Node> mid = Copy(root->at(h, 0));
    std::shared_ptr<Leaf> leaf = Copy(mid->at(h, 1));
    std::shared_ptr<Bucket> bucket = Copy(leaf->at(h, 2));
    edit(&bucket->entries);
    leaf->at(h, 2) =
        bucket->entries.empty() ? nullptr : std::shared_ptr<const Bucket>(bucket);
    mid->at(h, 1) = std::move(leaf);
    root->at(h, 0) = std::move(mid);
    root_ = std::move(root);
  }

  std::shared_ptr<const Root> root_;
};

// A key-ordered table of shared values in leaves of at most kLeafEntries
// entries. The leaves are exposed so that a caller can tell which key
// ranges two tables share: a leaf pointer both hold covers the same
// entries in both.
template <typename V>
class SortedTable {
 public:
  static constexpr size_t kLeafEntries = 64;
  using Entry = std::pair<std::string, std::shared_ptr<const V>>;
  struct Leaf {
    std::vector<Entry> entries;  // nonempty, key-sorted
    ChunkMemo memo;
  };
  using LeafPtr = std::shared_ptr<const Leaf>;

  const V* Find(std::string_view key) const {
    if (leaves_ == nullptr || leaves_->empty()) return nullptr;
    const Leaf& leaf = *(*leaves_)[LeafOf(key)];
    const auto it = LowerBound(leaf, key);
    return it != leaf.entries.end() && it->first == key ? it->second.get()
                                                        : nullptr;
  }

  // Inserts or replaces. A leaf that grows past kLeafEntries splits in two.
  void Set(const std::string& key, std::shared_ptr<const V> value) {
    if (leaves_ == nullptr || leaves_->empty()) {
      auto leaf = std::make_shared<Leaf>();
      leaf->entries.emplace_back(key, std::move(value));
      leaves_ = std::make_shared<const std::vector<LeafPtr>>(
          std::vector<LeafPtr>{std::move(leaf)});
      size_ = 1;
      return;
    }
    const size_t index = LeafOf(key);
    auto leaf = std::make_shared<Leaf>(*(*leaves_)[index]);
    const auto it = std::lower_bound(
        leaf->entries.begin(), leaf->entries.end(), key,
        [](const Entry& entry, std::string_view k) { return entry.first < k; });
    auto leaves = std::make_shared<std::vector<LeafPtr>>(*leaves_);
    if (it != leaf->entries.end() && it->first == key) {
      it->second = std::move(value);
      (*leaves)[index] = std::move(leaf);
    } else {
      leaf->entries.emplace(it, key, std::move(value));
      ++size_;
      if (leaf->entries.size() > kLeafEntries) {
        auto upper = std::make_shared<Leaf>();
        const auto half = leaf->entries.begin() +
                          static_cast<std::ptrdiff_t>(leaf->entries.size() / 2);
        upper->entries.assign(std::make_move_iterator(half),
                              std::make_move_iterator(leaf->entries.end()));
        leaf->entries.erase(half, leaf->entries.end());
        (*leaves)[index] = std::move(leaf);
        leaves->insert(leaves->begin() + static_cast<std::ptrdiff_t>(index) + 1,
                       std::move(upper));
      } else {
        (*leaves)[index] = std::move(leaf);
      }
    }
    leaves_ = std::move(leaves);
  }

  // Returns whether `key` was present. A leaf left empty is removed.
  bool Erase(std::string_view key) {
    if (Find(key) == nullptr) return false;
    const size_t index = LeafOf(key);
    auto leaf = std::make_shared<Leaf>(*(*leaves_)[index]);
    leaf->entries.erase(LowerBound(*leaf, key));
    auto leaves = std::make_shared<std::vector<LeafPtr>>(*leaves_);
    if (leaf->entries.empty()) {
      leaves->erase(leaves->begin() + static_cast<std::ptrdiff_t>(index));
    } else {
      (*leaves)[index] = std::move(leaf);
    }
    leaves_ = std::move(leaves);
    --size_;
    return true;
  }

  size_t size() const { return size_; }

  // The leaves in key order.
  const std::vector<LeafPtr>& leaves() const {
    static const std::vector<LeafPtr> kNone;
    return leaves_ != nullptr ? *leaves_ : kNone;
  }

  // Calls f(key, value) for every entry in key order.
  template <typename F>
  void ForEach(const F& f) const {
    for (const LeafPtr& leaf : leaves()) {
      for (const Entry& entry : leaf->entries) f(entry.first, *entry.second);
    }
  }

 private:
  static typename std::vector<Entry>::const_iterator LowerBound(
      const Leaf& leaf, std::string_view key) {
    return std::lower_bound(
        leaf.entries.begin(), leaf.entries.end(), key,
        [](const Entry& entry, std::string_view k) { return entry.first < k; });
  }

  // The leaf whose key range holds `key`: the last leaf whose first key is
  // not greater than it, or the first leaf.
  size_t LeafOf(std::string_view key) const {
    const std::vector<LeafPtr>& leaves = *leaves_;
    const auto it = std::upper_bound(
        leaves.begin(), leaves.end(), key,
        [](std::string_view k, const LeafPtr& leaf) {
          return k < leaf->entries.front().first;
        });
    return it == leaves.begin() ? 0
                                : static_cast<size_t>(it - leaves.begin()) - 1;
  }

  std::shared_ptr<const std::vector<LeafPtr>> leaves_;
  size_t size_ = 0;
};

// An append-only sequence of shared items. Item `seq` lives in slot
// seq % kChunkSlots of chunk seq / kChunkSlots for good, so a position
// names an item across every copy of the sequence, and two copies holding
// the same chunk pointer hold the same items there. Erasing empties the
// slot; a chunk whose slots are all empty is dropped (null).
template <typename T>
class ChunkedSeq {
 public:
  static constexpr size_t kChunkSlots = 64;
  struct Chunk {
    // On the heap, so that a chunk dropped by every table but still
    // weakly referenced keeps only a small block.
    std::vector<std::shared_ptr<const T>> slots =
        std::vector<std::shared_ptr<const T>>(kChunkSlots);
    size_t live = 0;
    ChunkMemo memo;
  };
  using ChunkPtr = std::shared_ptr<const Chunk>;

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    Iterator() = default;
    Iterator(const std::vector<ChunkPtr>* chunks, uint64_t seq)
        : chunks_(chunks), seq_(seq) {
      SkipEmpty();
    }
    reference operator*() const { return *Slot(); }
    pointer operator->() const { return Slot().get(); }
    Iterator& operator++() {
      ++seq_;
      SkipEmpty();
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const { return seq_ == other.seq_; }
    bool operator!=(const Iterator& other) const { return seq_ != other.seq_; }

   private:
    const std::shared_ptr<const T>& Slot() const {
      return (*chunks_)[seq_ / kChunkSlots]->slots[seq_ % kChunkSlots];
    }
    void SkipEmpty() {
      const uint64_t end = chunks_->size() * kChunkSlots;
      while (seq_ < end) {
        const ChunkPtr& chunk = (*chunks_)[seq_ / kChunkSlots];
        if (chunk == nullptr) {
          seq_ = (seq_ / kChunkSlots + 1) * kChunkSlots;
        } else if (chunk->slots[seq_ % kChunkSlots] == nullptr) {
          ++seq_;
        } else {
          return;
        }
      }
      seq_ = end;
    }

    const std::vector<ChunkPtr>* chunks_ = nullptr;
    uint64_t seq_ = 0;
  };

  Iterator begin() const { return Iterator(&chunks(), 0); }
  Iterator end() const {
    return Iterator(&chunks(), chunks().size() * kChunkSlots);
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& front() const { return *begin(); }

  // The item at `seq`, or null when the slot is empty or past the end.
  const T* At(uint64_t seq) const {
    const std::vector<ChunkPtr>& all = chunks();
    const size_t c = seq / kChunkSlots;
    if (c >= all.size() || all[c] == nullptr) return nullptr;
    return all[c]->slots[seq % kChunkSlots].get();
  }

  // Appends `item` after every slot ever used; returns its position.
  uint64_t Append(std::shared_ptr<const T> item) {
    const uint64_t seq = next_seq_++;
    Replace({{seq, std::move(item)}});
    return seq;
  }

  // Replaces the item at each position (one Append returned); a null item
  // empties the slot. The chunk list and each chunk touched are copied
  // once.
  void Replace(std::vector<std::pair<uint64_t, std::shared_ptr<const T>>> items) {
    if (items.empty()) return;
    auto chunks = chunks_ != nullptr
                      ? std::make_shared<std::vector<ChunkPtr>>(*chunks_)
                      : std::make_shared<std::vector<ChunkPtr>>();
    std::vector<std::pair<size_t, std::shared_ptr<Chunk>>> copies;
    for (auto& [seq, item] : items) {
      const size_t c = seq / kChunkSlots;
      if (chunks->size() <= c) chunks->resize(c + 1);
      auto copy = std::find_if(copies.begin(), copies.end(),
                               [c](const auto& entry) { return entry.first == c; });
      if (copy == copies.end()) {
        copies.emplace_back(c, (*chunks)[c] != nullptr
                                   ? std::make_shared<Chunk>(*(*chunks)[c])
                                   : std::make_shared<Chunk>());
        copy = copies.end() - 1;
      }
      Chunk& chunk = *copy->second;
      std::shared_ptr<const T>& slot = chunk.slots[seq % kChunkSlots];
      const bool had = slot != nullptr;
      slot = std::move(item);
      const bool has = slot != nullptr;
      chunk.live = chunk.live + (has ? 1 : 0) - (had ? 1 : 0);
      size_ = size_ + (has ? 1 : 0) - (had ? 1 : 0);
    }
    for (auto& [c, chunk] : copies) {
      (*chunks)[c] = chunk->live == 0 ? nullptr : std::move(chunk);
    }
    chunks_ = std::move(chunks);
  }

  // The chunks, a position's chunk at position / kChunkSlots; null where
  // every slot is empty.
  const std::vector<ChunkPtr>& chunks() const {
    static const std::vector<ChunkPtr> kNone;
    return chunks_ != nullptr ? *chunks_ : kNone;
  }

 private:
  std::shared_ptr<const std::vector<ChunkPtr>> chunks_;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace eve

#endif  // EVE_COMMON_PERSISTENT_TABLE_H_
