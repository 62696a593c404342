// Wall-clock profiling spans: RAII timers, fixed ring storage, Perfetto
// (Chrome-trace) JSON export.
//
// A Span measures one scoped region on the steady clock and, on destruction,
// records a fixed-size SpanRecord — name, start, duration, thread id, nesting
// depth — into the installed Profiler. Like the other obs instruments, the
// hot path performs no heap allocation: the obs::Ring is sized once at
// construction, the clock reads are integer arithmetic, and the optional
// metrics sink caches histogram references keyed by the span-name pointer
// (span names must be string literals or otherwise outlive the profiler).
// When no profiler is installed, a Span is two pointer reads and no clock
// access, so instrumented code paths stay cheap in uninstrumented runs.
//
// The whole hot path is header-only on purpose: sim/event_loop.h (an
// INTERFACE library that links only optrep_common) instruments its dispatch
// loop with OPTREP_SPAN, so nothing here may require linking optrep_obs
// except the exporter, which lives in prof.cc.
//
// Exported profiles use the Chrome-trace / Perfetto event format (schema tag
// "optrep.profile/v1", see docs/OBSERVABILITY.md) and load directly in
// chrome://tracing or ui.perfetto.dev. Note: wall-clock times are inherently
// non-deterministic; installing a metrics sink adds "<name>.wall_ns"
// histograms to the registry, which makes *that* registry's export
// run-dependent (the determinism contract covers model-derived metrics only).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace optrep::prof {

struct SpanRecord {
  const char* name{nullptr};  // not owned; must outlive the profiler
  std::uint64_t start_ns{0};  // relative to the profiler's epoch
  std::uint64_t dur_ns{0};
  std::uint32_t tid{0};    // dense per-process thread index, not an OS id
  std::uint32_t depth{0};  // nesting depth within the recording thread
};

// Dense thread index: 0 for the first thread that records, 1 for the next…
// Stable for the thread's lifetime; used as "tid" in exported profiles.
inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread span nesting depth (incremented by Span construction).
inline std::uint32_t& span_depth() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

class Profiler {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Profiler(std::size_t capacity = kDefaultCapacity)
      : epoch_(std::chrono::steady_clock::now()), ring_(capacity) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Nanoseconds on the steady clock since this profiler was constructed.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - epoch_)
                                          .count());
  }

  // Route per-span durations into `reg` as histograms named "<name>.wall_ns"
  // (log-scale, same instrument the protocol metrics use). The registry must
  // outlive the profiler. Pass nullptr to detach.
  void set_sink(obs::Registry* reg) {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = reg;
    sink_cache_.clear();
  }

  // Store one closed span. No allocation once a span name has been seen:
  // ring slots are preallocated and the sink cache is keyed by the name
  // pointer (names are literals), so steady-state recording is a mutex, an
  // array store, and a histogram bump.
  void record_closed(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint32_t tid, std::uint32_t depth) {
    std::lock_guard<std::mutex> lock(mu_);
    push_locked({name, start_ns, dur_ns, tid, depth});
  }

  // Fold another profiler's retained spans into this one (shard merge at a
  // parallel join). Span timestamps are rebased from the shard's epoch onto
  // this profiler's epoch, so merged profiles stay on one timeline. Drops in
  // the shard carry over; drops caused by this ring overflowing are counted
  // here as usual.
  void absorb(const Profiler& o) {
    OPTREP_CHECK(&o != this);
    std::scoped_lock lock(mu_, o.mu_);
    const auto delta = std::chrono::duration_cast<std::chrono::nanoseconds>(o.epoch_ - epoch_);
    for (std::size_t i = 0; i < o.ring_.size(); ++i) {
      SpanRecord rec = o.ring_.event(i);
      rec.start_ns = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(rec.start_ns) + delta.count());
      push_locked(rec);
    }
    ring_.count_dropped(o.ring_.dropped());
  }

  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }  // retained spans
  std::uint64_t total_recorded() const { return ring_.total_recorded(); }
  std::uint64_t dropped() const { return ring_.dropped(); }

  // i-th oldest retained span, i ∈ [0, size()).
  const SpanRecord& span(std::size_t i) const { return ring_.event(i); }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
  }

 private:
  // Requires mu_ held.
  void push_locked(const SpanRecord& rec) {
    ring_.record(rec);
    if (sink_ != nullptr) {
      auto it = sink_cache_.find(rec.name);
      if (it == sink_cache_.end()) {
        obs::Histogram& h = sink_->histogram(std::string(rec.name) + ".wall_ns");
        it = sink_cache_.emplace(rec.name, &h).first;
      }
      it->second->record(rec.dur_ns);
    }
  }

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  obs::Ring<SpanRecord> ring_;
  obs::Registry* sink_{nullptr};
  // Name-pointer → histogram cache: heterogeneous-free lookup, allocates only
  // on the first record of each distinct span name.
  std::map<const char*, obs::Histogram*> sink_cache_;
};

// Process-wide profiler used by OPTREP_SPAN. Install for the duration of a
// profiled run (e.g. optrep_cli --profile-out); nullptr disables recording.
inline std::atomic<Profiler*>& global_profiler_slot() {
  static std::atomic<Profiler*> slot{nullptr};
  return slot;
}
inline void set_global_profiler(Profiler* p) {
  global_profiler_slot().store(p, std::memory_order_release);
}
inline Profiler* global_profiler() {
  return global_profiler_slot().load(std::memory_order_acquire);
}

// RAII span: times the enclosing scope and records on destruction. With no
// profiler installed the constructor is a single atomic load.
class Span {
 public:
  explicit Span(const char* name) : Span(global_profiler(), name) {}
  Span(Profiler* p, const char* name) : p_(p), name_(name) {
    if (p_ == nullptr) return;
    depth_ = span_depth()++;
    start_ns_ = p_->now_ns();
  }
  ~Span() {
    if (p_ == nullptr) return;
    --span_depth();
    const std::uint64_t end = p_->now_ns();
    p_->record_closed(name_, start_ns_, end - start_ns_, thread_index(), depth_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Profiler* p_;
  const char* name_;
  std::uint64_t start_ns_{0};
  std::uint32_t depth_{0};
};

#define OPTREP_PROF_CONCAT2(a, b) a##b
#define OPTREP_PROF_CONCAT(a, b) OPTREP_PROF_CONCAT2(a, b)
// Time the enclosing scope under `name` (a string literal) on the global
// profiler: OPTREP_SPAN("vv.syncs");
#define OPTREP_SPAN(name) \
  ::optrep::prof::Span OPTREP_PROF_CONCAT(optrep_span_, __LINE__)(name)

// Chrome-trace / Perfetto JSON ("X" complete events, µs timestamps; schema
// tag "optrep.profile/v1" in otherData). Defined in prof.cc — the only
// non-header symbol in this module, so only exporters link optrep_obs.
std::string profile_to_json(const Profiler& p);

}  // namespace optrep::prof
