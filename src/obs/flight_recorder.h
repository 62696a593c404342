// Protocol flight recorder: a fixed ring of the last K protocol events per
// run, frozen at the first anomaly and dumped as a reproducible post-mortem.
//
// Sessions record the TraceEvent of every wire message (and, with `fault`
// set, of every injected fault, via the sim::FaultInjector observer) — the
// same value they hand the Tracer. record() is a ring write with no heap
// allocation. When a Table 2 bound violation, a typed decode error, or retry
// exhaustion fires, trigger() snapshots the ring — the K events *leading up
// to* the anomaly — so later traffic cannot overwrite the evidence.
// flight_to_json() exports the frozen snapshot (or the live ring when nothing
// ever triggered) as an optrep.flight/v1 document (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/ring.h"
#include "obs/trace.h"

namespace optrep::obs {

// The live ring of the last K events, plus the copy trigger() froze.
class FlightRecorder : public Ring<TraceEvent> {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : Ring(capacity), snapshot_(capacity) {}

  // Reproducibility context for the dump header: the run's fault-injection
  // seed (set once by the system wiring the recorder) and the retry attempt
  // currently executing (kept current by vv::sync_with_recovery). Both are
  // captured into the frozen header at trigger time, so a dump names the
  // exact --fault-seed / attempt to replay from the command line.
  void set_fault_seed(std::uint64_t seed) { fault_seed_ = seed; }
  void note_attempt(std::uint32_t attempt) { attempt_ = attempt; }

  // First trigger freezes the ring and keeps the reason; later triggers only
  // count (the first anomaly is the one worth replaying — everything after
  // it happened in an already-anomalous run).
  void trigger(std::string_view reason, double at) {
    ++trigger_count_;
    if (triggered_) return;
    triggered_ = true;
    reason_.assign(reason);
    triggered_at_ = at;
    trigger_attempt_ = attempt_;
    // Same capacity on both sides: the copy reuses the snapshot's slots.
    snapshot_ = static_cast<const Ring<TraceEvent>&>(*this);
  }

  bool triggered() const { return triggered_; }
  std::uint64_t trigger_count() const { return trigger_count_; }
  const std::string& reason() const { return reason_; }
  double triggered_at() const { return triggered_at_; }
  std::uint64_t fault_seed() const { return fault_seed_; }
  std::uint32_t trigger_attempt() const { return trigger_attempt_; }
  // Sequence number of the triggering anomaly: events recorded before it.
  std::uint64_t trigger_seq() const { return snapshot_.total_recorded(); }

  // The events a dump exports: the frozen snapshot after a trigger, the live
  // ring otherwise.
  const Ring<TraceEvent>& dump() const { return triggered_ ? snapshot_ : *this; }

  void clear() {
    Ring::clear();
    snapshot_.clear();
    triggered_ = false;
    trigger_count_ = 0;
    reason_.clear();
    triggered_at_ = 0;
    trigger_attempt_ = 0;
  }

 private:
  Ring<TraceEvent> snapshot_;  // frozen ring contents at trigger time
  bool triggered_{false};
  std::uint64_t trigger_count_{0};
  std::string reason_;
  double triggered_at_{0};
  std::uint64_t fault_seed_{0};
  std::uint32_t attempt_{0};          // retry attempt currently executing
  std::uint32_t trigger_attempt_{0};  // ...frozen at trigger time
};

// One optrep.flight/v1 document: trigger header plus one event per line,
// oldest first.
std::string flight_to_json(const FlightRecorder& r);

}  // namespace optrep::obs
