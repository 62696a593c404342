// The bounded event ring behind every recorder in src/obs: the protocol
// Tracer, the FlightRecorder, the CausalTracer and prof::Profiler.
//
// The buffer is allocated once at construction. When it is full, record()
// overwrites the oldest entry, so the ring always holds the most recent
// capacity() entries. total_recorded() counts every entry ever recorded and
// dropped() the ones no longer retained, so truncation is visible in every
// exported artifact. record() is one array store plus counter updates and
// never allocates.
//
// Header-only and dependent on common/ alone: prof.h keeps its spans here,
// and sim/event_loop.h (an INTERFACE library that links only optrep_common)
// includes prof.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace optrep::obs {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : buf_(capacity) {
    OPTREP_CHECK_MSG(capacity > 0, "ring capacity must be positive");
  }

  void record(const T& e) {
    ++total_;
    if (size_ < buf_.size()) {
      buf_[(head_ + size_++) % buf_.size()] = e;
    } else {
      buf_[head_] = e;
      head_ = (head_ + 1) % buf_.size();
    }
  }

  // Entries recorded elsewhere and dropped there (a merged shard's overflow):
  // they count toward total_recorded() and dropped() but occupy no slot.
  void count_dropped(std::uint64_t n) { total_ += n; }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }  // retained entries
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - size_; }

  // i-th oldest retained entry, i ∈ [0, size()).
  const T& event(std::size_t i) const {
    OPTREP_DCHECK(i < size_);
    return buf_[(head_ + i) % buf_.size()];
  }

  void clear() {
    head_ = size_ = 0;
    total_ = 0;
  }

 private:
  std::vector<T> buf_;  // sized once; never reallocated
  std::size_t head_{0};
  std::size_t size_{0};
  std::uint64_t total_{0};
};

}  // namespace optrep::obs
