// One anti-entropy contact of a state-transfer system (§2.1), the step
// StateSystem and RecordSystem share: COMPARE (Alg 1) and, when the receiver
// does not cover the sender, SYNCB/SYNCC/SYNCS (Alg 2–4) under
// vv::sync_with_recovery, plus the per-session accounting both keep. What a
// system does with a merged contact (payload transfer, reconciliation, the
// semantic merge) stays with the system.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/cost_model.h"
#include "common/ids.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/frame_link.h"
#include "vv/compare.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"

namespace optrep::repl {

// Session totals every vector-sync system keeps.
struct SyncTotals {
  std::uint64_t sessions{0};
  std::uint64_t bits{0};
  // Fault injection (net.faults): session re-runs, sessions that never
  // converged within the retry budget (complete no-ops, redone by a later
  // sync), injected message faults, and the model-bit traffic attributable
  // to recovery attempts.
  std::uint64_t retries{0};
  std::uint64_t sync_failures{0};
  std::uint64_t faults_injected{0};
  std::uint64_t recovery_bits{0};
  // Sessions whose traffic exceeded the Table 2 bound for the configured
  // kind plus the COMPARE probes. Checked lossless only (retried traffic is
  // accounted in recovery_bits): expected 0 in kIdeal mode, pipelined runs
  // may overshoot by β (§3.1) — either way it is never silent.
  std::uint64_t bound_violations{0};
};

class VectorSync {
 public:
  // `prefix` names the system's counters: "<prefix>.sessions", ...
  VectorSync(std::string_view prefix, vv::VectorKind kind, vv::TransferMode mode,
             const sim::NetConfig& net, const CostModel& cost, obs::Tracer* tracer,
             obs::FlightRecorder* recorder);

  // Per-contact inputs. Sequential syncs pass the system's own registry and
  // causal tracer; StateSystem::run_batch passes per-shard and per-session
  // ones.
  struct Contact {
    SiteId dst;
    SiteId src;
    std::uint64_t session{0};  // trace session id
    obs::Registry* metrics{nullptr};
    obs::CausalTracer* causal{nullptr};
    // Nonzero re-seeds the session's fault stream with sim::fault_stream_seed:
    // batch sessions run on fresh local loops, where the wiring-level salt
    // (the loop's executed-event count) restarts at zero for every session.
    std::uint64_t fault_salt{0};
  };

  struct Outcome {
    vv::Ordering relation{vv::Ordering::kEqual};
    vv::SyncReport report;  // COMPARE probes included
    // The receiver's vector now covers the sender's: the caller applies the
    // content effects. False when it already did, when `admit` held the
    // contact at COMPARE, and when the retry budget ran out — the vector is
    // then exactly as before, so a failed sync is a complete no-op and the
    // metadata never claims content that was not transferred.
    bool merged{false};
  };

  // COMPARE — exact (compare_full) under fault injection, where an earlier
  // failed sync may have left the receiver partially joined, outside the
  // at-rest states compare_fast assumes — then, unless the receiver covers
  // the sender, admit(relation) and the synchronization. `admit` is the
  // caller's last look before the vector changes: it may snapshot, or return
  // false to hold the contact at COMPARE.
  template <class Admit>
  Outcome run(sim::EventLoop& loop, vv::RotatingVector& receiver,
              const vv::RotatingVector& sender, const Contact& c, Admit&& admit) const {
    Outcome out;
    out.relation = base_.net.faults.enabled() ? vv::compare_full(receiver, sender)
                                              : vv::compare_fast(receiver, sender);
    const bool covered =
        out.relation == vv::Ordering::kEqual || out.relation == vv::Ordering::kAfter;
    if (covered || !admit(out.relation)) {
      out.report.initial_relation = out.relation;
    } else {
      out.report = transfer(loop, receiver, sender, out.relation, c);
      out.merged = out.report.converged;
    }
    // The COMPARE probes are part of every session's traffic.
    out.report.fwd.model_bits += vv::compare_cost_bits(base_.cost) / 2;
    out.report.rev.model_bits += vv::compare_cost_bits(base_.cost) / 2;
    return out;
  }

  // The accounting tail of one session: the common totals and the Table 2
  // check (a violation triggers the flight recorder at `now`).
  void account(const vv::SyncReport& r, SyncTotals& t, obs::Registry& metrics,
               sim::Time now) const;

  // "<prefix>.sessions", the recovery counters under fault injection, and
  // the sim.* gauges of `loop`.
  void publish(obs::Registry& metrics, const SyncTotals& t, const sim::EventLoop& loop) const;

 private:
  vv::SyncReport transfer(sim::EventLoop& loop, vv::RotatingVector& a,
                          const vv::RotatingVector& b, vv::Ordering rel,
                          const Contact& c) const;

  vv::SyncOptions base_;  // the system-wide half of every session's options
  std::string sessions_, retries_, sync_failures_, faults_injected_, recovery_bits_;
};

// The sim.* gauges of an event loop: queue depth and its high-water mark,
// executed and cancelled events.
void publish_loop_gauges(obs::Registry& metrics, const sim::EventLoop& loop);

}  // namespace optrep::repl
