// IdIndex: an open-addressed UpdateId → dense-position index, and IdSet, a
// flat set of UpdateIds built on it.
//
// SYNCG's sink-containment test and its DFS are lookups by UpdateId (§6), and
// a node-based hash map pays a heap node per insert and a pointer chase per
// probe. Here the owner keeps its entries in a dense array in insertion
// order, and the index holds only their 32-bit positions: a power-of-two
// table of cells, probed linearly from std::hash<UpdateId>, kept at load
// ≤ 0.5. Keys are not stored twice — a probe reads the key back through the
// owner's `key_at(position)` — so a cell costs 4 bytes, and an insert
// allocates only when the table doubles. Entries are never erased, so the
// n indexed positions are exactly 0..n-1 and a rehash rebuilds the table by
// one sequential pass over the owner's array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"

namespace optrep::graph {

class IdIndex {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Position of `id`, or kNil when absent.
  template <class KeyAt>
  std::uint32_t find(UpdateId id, const KeyAt& key_at) const {
    if (cells_.empty()) return kNil;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const std::uint32_t p = cells_[i];
      if (p == kNil || key_at(p) == id) return p;
    }
  }

  // Position of `id` if present; otherwise records the next position (the
  // number of entries indexed so far) for it and returns kNil — the owner
  // then appends the entry there.
  template <class KeyAt>
  std::uint32_t find_or_insert(UpdateId id, const KeyAt& key_at) {
    if ((size_ + 1) * 2 > cells_.size()) rehash(key_at);
    std::size_t i = home(id);
    for (;; i = (i + 1) & mask_) {
      const std::uint32_t p = cells_[i];
      if (p == kNil) break;
      if (key_at(p) == id) return p;
    }
    cells_[i] = static_cast<std::uint32_t>(size_++);
    return kNil;
  }

  std::uint64_t memory_bytes() const { return cells_.capacity() * sizeof(std::uint32_t); }

 private:
  static constexpr std::size_t kMinCells = 8;

  std::size_t home(UpdateId id) const { return std::hash<UpdateId>{}(id) & mask_; }

  // Double the table (or create it) and re-place every indexed position.
  template <class KeyAt>
  void rehash(const KeyAt& key_at) {
    const std::size_t cells = cells_.empty() ? kMinCells : cells_.size() * 2;
    cells_.assign(cells, kNil);
    mask_ = cells - 1;
    for (std::uint32_t p = 0; p < size_; ++p) {
      std::size_t i = home(key_at(p));
      while (cells_[i] != kNil) i = (i + 1) & mask_;
      cells_[i] = p;
    }
  }

  std::vector<std::uint32_t> cells_;  // kNil marks an empty cell
  std::size_t size_{0};               // entries indexed
  std::size_t mask_{0};
};

// A set of UpdateIds in insertion order, indexed by an IdIndex. Sized by
// what it holds: an empty set owns no memory.
class IdSet {
 public:
  bool contains(UpdateId id) const {
    return index_.find(id, KeyAt{&ids_}) != IdIndex::kNil;
  }

  // Add `id`; false when it was already present.
  bool insert(UpdateId id) {
    if (index_.find_or_insert(id, KeyAt{&ids_}) != IdIndex::kNil) return false;
    ids_.push_back(id);
    return true;
  }

 private:
  struct KeyAt {
    const std::vector<UpdateId>* ids;
    UpdateId operator()(std::uint32_t p) const { return (*ids)[p]; }
  };

  std::vector<UpdateId> ids_;
  IdIndex index_;
};

}  // namespace optrep::graph
