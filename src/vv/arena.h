// Arena-backed columnar storage for replica state.
//
// A world with 10^5–10^6 sites cannot afford hundreds of malloc'd blocks per
// replica: the AoS layout this PR replaces kept one std::vector<Slot> plus a
// hash table per RotatingVector, so large fleets fragmented the heap and paid
// a pointer-chased cache miss per touched slot field. The columnar layout
// splits replica state into parallel arrays (SoA) whose backing memory comes
// from a per-world Arena, and every cross-reference inside replica state is a
// 32-bit slot handle into those arrays — never a pointer — so a replica's
// whole footprint is a handful of dense, relocatable columns.
//
// Arena: a bump/slab allocator. Allocation carves from the current slab and
// opens a new one when full; memory is never returned to the OS until the
// arena dies. That "never frees" property is load-bearing for concurrency:
// the PR 8 optimistic-read contract requires that a column a racing reader
// is probing stays mapped until validation — an arena-backed column that
// grows abandons its old block in place (retired, still mapped) instead of
// handing it back to the allocator the way std::vector does. reserve() is
// still the rule for zero-alloc steady state (and for readers to see a
// *consistent* column), but a missed reserve corrupts an answer that
// validation rejects rather than touching freed memory.
//
// Column<T>: a minimal growable array over an optional Arena. With no arena
// attached it behaves like std::vector (heap blocks, old block released on
// growth — callers owe the reserve() discipline exactly as before). Copies
// are always heap-backed value snapshots (sync_with_recovery's saved states
// and StateSystem replica copies must not pin a foreign world's arena);
// copy-assignment into an arena-backed column keeps the destination's arena.
// Moves transfer the data block and leave the source empty but still bound
// to its arena, vector-style.
//
// Accounting: the arena tracks reserved (slab) bytes, live bytes, retired
// bytes (blocks abandoned by column growth) and the live high-water mark —
// surfaced by the scenario engine as rt.arena.* gauges and timeline rows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace optrep::vv {

class Arena {
 public:
  struct Stats {
    std::uint64_t reserved_bytes{0};  // Σ slab sizes held from the OS
    std::uint64_t live_bytes{0};      // allocated minus retired
    std::uint64_t retired_bytes{0};   // blocks abandoned by column growth
    std::uint64_t high_water_bytes{0};  // max live_bytes ever observed
    std::uint64_t slabs{0};
  };

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes < kMinSlabBytes ? kMinSlabBytes : slab_bytes) {}
  ~Arena() {
    for (Slab& s : slabs_) ::operator delete(s.base, std::align_val_t{kAlign});
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocate `bytes` (alignment up to kAlign). Oversized requests get a
  // dedicated slab so one huge column cannot strand a half-used bump slab.
  void* allocate(std::size_t bytes) {
    if (bytes == 0) return nullptr;
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (bytes > slab_bytes_ / 2) {
      Slab s = new_slab(bytes);
      s.used = bytes;
      slabs_.push_back(s);
      account(bytes);
      return s.base;
    }
    if (slabs_.empty() || slabs_.back().size - slabs_.back().used < bytes) {
      slabs_.push_back(new_slab(slab_bytes_));
    }
    Slab& s = slabs_.back();
    void* p = static_cast<char*>(s.base) + s.used;
    s.used += bytes;
    account(bytes);
    return p;
  }

  // Blocks are never unmapped; "retiring" only moves bytes from live to
  // retired in the stats (a racing optimistic reader may still probe them).
  void retire(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    stats_.retired_bytes += bytes;
    stats_.live_bytes -= bytes;
  }

  const Stats& stats() const { return stats_; }

  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kDefaultSlabBytes = std::size_t{1} << 20;
  static constexpr std::size_t kMinSlabBytes = 4096;

 private:
  struct Slab {
    void* base{nullptr};
    std::size_t size{0};
    std::size_t used{0};
  };

  Slab new_slab(std::size_t size) {
    Slab s;
    s.base = ::operator new(size, std::align_val_t{kAlign});
    s.size = size;
    stats_.reserved_bytes += size;
    ++stats_.slabs;
    return s;
  }

  void account(std::size_t bytes) {
    stats_.live_bytes += bytes;
    if (stats_.live_bytes > stats_.high_water_bytes) {
      stats_.high_water_bytes = stats_.live_bytes;
    }
  }

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  Stats stats_;
};

// One column of an SoA layout: a contiguous array of trivially copyable
// cells, indexed by 32-bit slot handles. Growth copies into a fresh block;
// shrinking (resize down) never releases or moves memory, so a concurrent
// optimistic reader holding a stale handle below the old size still reads
// mapped (if meaningless) bytes, which its olock validation then rejects.
template <class T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Column() = default;
  explicit Column(Arena* arena) : arena_(arena) {}
  ~Column() { release(); }

  // Copies are heap-backed value snapshots — never bound to the source's
  // arena (snapshots outlive worlds; see header comment).
  Column(const Column& o) { copy_in(o); }
  Column& operator=(const Column& o) {
    if (this != &o) {
      // Keep this column's backing (arena or heap); just ensure capacity.
      if (o.size_ > cap_) regrow(o.size_);
      if (o.size_ > 0) std::memcpy(data_, o.data_, o.size_ * sizeof(T));
      size_ = o.size_;
    }
    return *this;
  }
  Column(Column&& o) noexcept
      : data_(o.data_), size_(o.size_), cap_(o.cap_), arena_(o.arena_) {
    // The source stays bound to its arena but owns no block (vector-style
    // moved-from state).
    o.data_ = nullptr;
    o.size_ = 0;
    o.cap_ = 0;
  }
  Column& operator=(Column&& o) noexcept {
    if (this != &o) {
      release();
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      arena_ = o.arena_;
      o.data_ = nullptr;
      o.size_ = 0;
      o.cap_ = 0;
    }
    return *this;
  }

  // Bind to an arena. Only legal before the first allocation — rebinding a
  // populated column would split its blocks across owners.
  void attach_arena(Arena* arena) {
    OPTREP_CHECK_MSG(cap_ == 0, "attach_arena: column already allocated");
    arena_ = arena;
  }
  Arena* arena() const { return arena_; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t memory_bytes() const { return std::uint64_t{cap_} * sizeof(T); }

  T* data() { return data_; }
  const T* data() const { return data_; }

  // Publication pair for an optimistic reader racing the single writer:
  // swap() hands this column `o`'s block with one release store of the data
  // pointer (a reader sees the old block or the new one, never a null in
  // between), and data_acquire() is the matching reader-side load.
  void swap(Column& o) noexcept {
    T* const d = o.data_;
    o.data_ = data_;
    std::atomic_ref<T*>(data_).store(d, std::memory_order_release);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    std::swap(arena_, o.arena_);
  }
  const T* data_acquire() const {
    return std::atomic_ref<T*>(const_cast<T*&>(data_)).load(std::memory_order_acquire);
  }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }

  // A release store, like every other shared word: a cell past size() may
  // still be read by an optimistic reader that followed a stale link (a
  // RotatingVector::compact shrinks without reallocating), so refilling it
  // races that reader's atomic load. Single-threaded cost: a plain mov.
  void push_back(T v) {
    if (size_ == cap_) regrow(cap_ < 8 ? 8 : cap_ * 2);
    std::atomic_ref<T>(data_[size_]).store(v, std::memory_order_release);
    ++size_;
  }
  void pop_back() { --size_; }

  // Grow-with-default or shrink. Shrinking keeps the block and capacity.
  void resize(std::size_t n) {
    if (n > cap_) regrow(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }

  void assign(std::size_t n, T v) {
    if (n > cap_) regrow(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
    size_ = n;
  }

  void clear() { size_ = 0; }

 private:
  void copy_in(const Column& o) {
    arena_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
    if (o.size_ > 0) {
      regrow(o.size_);
      std::memcpy(data_, o.data_, o.size_ * sizeof(T));
      size_ = o.size_;
    }
  }

  void regrow(std::size_t new_cap) {
    T* nd;
    if (arena_ != nullptr) {
      nd = static_cast<T*>(arena_->allocate(new_cap * sizeof(T)));
    } else {
      nd = static_cast<T*>(::operator new(new_cap * sizeof(T), std::align_val_t{Arena::kAlign}));
    }
    // Callers only grow (new_cap ≥ size_); the clamp states that bound in a
    // form the compiler's object-size checker can see.
    const std::size_t keep = size_ < new_cap ? size_ : new_cap;
    if (keep > 0) std::memcpy(nd, data_, keep * sizeof(T));
    release();
    data_ = nd;
    cap_ = new_cap;
  }

  void release() {
    if (data_ == nullptr) return;
    if (arena_ != nullptr) {
      arena_->retire(cap_ * sizeof(T));  // stays mapped; see Arena::retire
    } else {
      ::operator delete(data_, std::align_val_t{Arena::kAlign});
    }
    data_ = nullptr;
  }

  T* data_{nullptr};
  std::size_t size_{0};
  std::size_t cap_{0};
  Arena* arena_{nullptr};
};

}  // namespace optrep::vv
