// Deterministic lossy-network fault injection.
//
// A FaultInjector interposes between a link's delivery callback and the
// receiving protocol actor. Faults act strictly at *delivery* time — after
// transmission committed — so link pacing, frame batching, and speculative
// send/revoke timing (sim/frame_link.h) are untouched; only what the
// receiver observes changes. Four independent fault classes, each rolled
// per message from one seeded stream (common/rng.h, xoshiro256**):
//
//   corrupt   payload is bit-flipped in flight. The model assumes a frame
//             checksum (CRC), so every corrupted message is *detected and
//             discarded*; an injectable Corrupter runs the real codec over
//             the flipped payload to record how many corruptions the typed
//             decoders would already catch without the checksum. Silent
//             (undetected) corruption is explicitly out of scope.
//   drop      message discarded.
//   duplicate a second copy is delivered immediately after the original
//             (scheduled at `now`, so it lands behind the current dispatch).
//   reorder   delivery is held back by the injector's hold (one link
//             latency plus ε in the vv sessions), landing behind messages
//             that arrive within the hold.
//
// Duplicated/held copies are delivered directly — they are not re-rolled, so
// a session with f in-flight messages schedules at most 2f deliveries and
// every session terminates. Determinism: rolls are consumed in delivery
// order, which the event loop fixes, so a (seed, salt) pair reproduces the
// exact fault pattern.
#pragma once

#include <cstdint>
#include <functional>

#include "common/check.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "sim/frame_link.h"

namespace optrep::sim {

// Which fault class hit a message (for per-message observers; aggregate
// counts live in FaultStats).
enum class FaultKind : std::uint8_t { kDropped, kDuplicated, kReordered, kCorrupted };

struct FaultStats {
  std::uint64_t delivered{0};  // messages actually handed to the receiver
  std::uint64_t dropped{0};
  std::uint64_t duplicated{0};
  std::uint64_t reordered{0};
  std::uint64_t corrupted{0};             // corrupted in flight (all discarded)
  std::uint64_t corrupt_decode_errors{0};  // ...already rejected by the codec

  std::uint64_t injected() const { return dropped + duplicated + reordered + corrupted; }
};

// Distinct Rng streams for the two directions of a duplex, mixed with the
// attempt number so every retry observes an independent fault pattern.
inline std::uint64_t fault_stream_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t fault_attempt_seed(std::uint64_t seed, std::uint32_t attempt) {
  return fault_stream_seed(seed, 0x5e71ULL + attempt);
}

constexpr std::uint64_t kFaultSaltForward = 0x66D5;
constexpr std::uint64_t kFaultSaltReverse = 0x1A2B;

template <class Msg>
class FaultInjector {
 public:
  using Handler = std::function<void(const Msg&)>;
  // Applies a bit flip through the real wire codec; mutates the message to
  // the decoded corruption when decoding succeeds. Returns true when the
  // corruption was *detected* by the decoder (typed decode error).
  using Corrupter = std::function<bool(Msg&, Rng&)>;

  // `hold_s`: how long a reordered message is held back.
  FaultInjector(EventLoop* loop, const NetConfig::FaultConfig& cfg, std::uint64_t stream_salt,
                Time hold_s)
      : loop_(loop),
        cfg_(cfg),
        rng_(fault_stream_seed(cfg.seed, stream_salt)),
        hold_s_(hold_s) {
    OPTREP_CHECK(loop != nullptr);
  }

  // Injectors schedule closures capturing `this`; pin the address.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_receiver(Handler h) { out_ = std::move(h); }
  void set_corrupter(Corrupter c) { corrupt_ = std::move(c); }

  // Per-message fault observer (obs::FlightRecorder annotations): called once
  // for every injected fault with the class, whether the typed codec caught a
  // corruption, and the affected message. Observation only — the delivery
  // outcome is already decided when it fires.
  using Observer = std::function<void(FaultKind, bool decode_error, const Msg&)>;
  void set_observer(Observer o) { observe_ = std::move(o); }

  // The link's delivery hook: roll faults, then forward (or not).
  void deliver(const Msg& m) {
    OPTREP_CHECK_MSG(out_ != nullptr, "fault injector has no receiver");
    if (cfg_.corrupt > 0 && rng_.chance(cfg_.corrupt)) {
      ++stats_.corrupted;
      bool decode_error = false;
      if (corrupt_) {
        Msg flipped = m;
        decode_error = corrupt_(flipped, rng_);
        if (decode_error) ++stats_.corrupt_decode_errors;
      }
      if (observe_) observe_(FaultKind::kCorrupted, decode_error, m);
      return;  // the checksum catches what the codec does not: discarded
    }
    if (cfg_.drop > 0 && rng_.chance(cfg_.drop)) {
      ++stats_.dropped;
      if (observe_) observe_(FaultKind::kDropped, false, m);
      return;
    }
    if (cfg_.duplicate > 0 && rng_.chance(cfg_.duplicate)) {
      ++stats_.duplicated;
      if (observe_) observe_(FaultKind::kDuplicated, false, m);
      // Lands after the current dispatch completes (same-time events run in
      // schedule order), i.e. right behind the original copy below.
      loop_->schedule(loop_->now(), [this, m] { hand_off(m); });
    }
    if (cfg_.reorder > 0 && rng_.chance(cfg_.reorder)) {
      ++stats_.reordered;
      if (observe_) observe_(FaultKind::kReordered, false, m);
      loop_->schedule(loop_->now() + hold_s_, [this, m] { hand_off(m); });
      return;
    }
    hand_off(m);
  }

  const FaultStats& stats() const { return stats_; }

 private:
  void hand_off(const Msg& m) {
    ++stats_.delivered;
    out_(m);
  }

  EventLoop* loop_;
  NetConfig::FaultConfig cfg_;
  Rng rng_;
  Time hold_s_;
  Handler out_;
  Corrupter corrupt_;
  Observer observe_;
  FaultStats stats_;
};

}  // namespace optrep::sim
