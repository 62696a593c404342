// Predecessor sets ([1] §4.2) — the other baseline of Observation 2.1.
//
// Each replica carries the set of identifiers of all operations that shaped
// its state. Causal comparison is subset testing. The per-replica size is at
// least one entry per active site (and grows with updates unless truncated),
// which is why §2.2 argues version vectors dominate this scheme for
// state-transfer concurrency control.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "common/ids.h"
#include "vv/order.h"

namespace optrep::meta {

class PredecessorSet {
 public:
  // site id (4) + sequence number (8) per entry.
  static constexpr std::uint64_t kBytesPerEntry = 12;

  void record_update(UpdateId id) { ops_.insert(id); }

  // Synchronization result: the union of both sets.
  void join(const PredecessorSet& other) { ops_.insert(other.ops_.begin(), other.ops_.end()); }

  bool contains(UpdateId id) const { return ops_.contains(id); }
  std::size_t size() const { return ops_.size(); }
  bool operator==(const PredecessorSet&) const = default;

  vv::Ordering compare(const PredecessorSet& other) const;

  std::uint64_t storage_bytes() const { return size() * kBytesPerEntry; }
  std::uint64_t exchange_bytes() const { return storage_bytes(); }

 private:
  std::unordered_set<UpdateId> ops_;
};

}  // namespace optrep::meta
