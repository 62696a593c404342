// Vector synchronization sessions: SYNCB (Alg 2), SYNCC (Alg 3), SYNCS
// (Alg 4), plus the traditional full-vector baseline and the
// Singhal–Kshemkalyani incremental baseline [23].
//
// A session drives a sender core (hosting vector b) and a receiver core
// (hosting vector a, which is modified) through the simulator driver
// (vv/core_driver.h) and returns a SyncReport with exact traffic, element and
// timing accounting.
//
// Transfer modes:
//  - kPipelined:   the paper's network pipelining (§3.1): the sender streams
//                  speculatively, paced by link bandwidth, until it hears a
//                  negative response. Saves (k−1)·rtt of running time but may
//                  overshoot by up to β = bandwidth·rtt after the receiver
//                  halts — both effects are measurable in the report.
//  - kStopAndWait: one element per round trip; each element is acknowledged.
//                  The ablation baseline the paper compares pipelining against.
//  - kIdeal:       stop-and-wait flow control with zero-cost acks; measures
//                  the algorithms' idealized communication complexity exactly
//                  as stated in Table 2 (the halt takes effect instantly).
#pragma once

#include <optional>
#include <vector>

#include "common/cost_model.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/frame_link.h"
#include "vv/compare.h"
#include "vv/rotating_vector.h"
#include "vv/version_vector.h"
#include "vv/wire.h"

namespace optrep::vv {

enum class TransferMode : std::uint8_t { kPipelined, kStopAndWait, kIdeal };

// Retry policy for sync_with_recovery: how many times a session may be
// re-run when fault injection keeps the replicas from converging, and the
// bounded exponential backoff between attempts.
struct RetryPolicy {
  std::uint32_t max_retries{6};
  sim::Time base_backoff_s{0.05};  // attempt k waits base · 2^k, capped below
  sim::Time max_backoff_s{2.0};
};

struct SyncOptions {
  VectorKind kind{VectorKind::kSrv};
  TransferMode mode{TransferMode::kPipelined};
  sim::NetConfig net{};
  CostModel cost{};
  // Relation between a and b if the caller already knows it (e.g. from a
  // prior COMPARE); otherwise the session runs COMPARE itself and charges
  // compare_cost_bits to the traffic totals.
  std::optional<Ordering> known_relation;
  // Optional transcript taps: each registered subscriber observes every
  // message as it enters a link (true = sender→receiver direction), in
  // registration order. For debugging and tests — a tracer and a test
  // assertion can watch the same session.
  using Tap = std::function<void(bool forward, const VvMsg&)>;
  std::vector<Tap> taps;
  void add_tap(Tap t) { taps.push_back(std::move(t)); }

  // Structured observability (optional, see src/obs/): typed protocol events
  // go to `tracer` stamped with `trace_session`; per-session aggregates
  // (counters + a total-bits histogram, "vv." prefix) go to `metrics`.
  // Neither adds heap allocation on the per-message path.
  obs::Tracer* tracer{nullptr};
  std::uint64_t trace_session{0};
  obs::Registry* metrics{nullptr};

  // Optional flight recorder (obs/flight_recorder.h): the TraceEvent of every
  // wire message — the one the tracer records — and of every injected fault
  // lands in its ring; typed decode errors and retry exhaustion trigger it.
  // Shares the tracer's tap — no extra per-message cost when unset.
  obs::FlightRecorder* recorder{nullptr};

  // Causal propagation tracing (obs/causal.h): with `causal` set every
  // session opens a span and emits send/receive/fault/apply edges onto it;
  // sync_with_recovery opens a root span per call and parents each attempt's
  // span under it, stamped with the attempt index. src_site/dst_site label
  // the replica sites when the caller knows them (the repl systems do;
  // standalone sessions leave 0).
  obs::CausalTracer* causal{nullptr};
  SiteId src_site{};
  SiteId dst_site{};

  // Used by sync_with_recovery when opt.net.faults.enabled().
  RetryPolicy retry{};
};

struct SyncReport {
  Ordering initial_relation{Ordering::kEqual};

  // Traffic per direction (fwd: sender→receiver, rev: receiver→sender), as
  // the session's links counted it: §3.3 model bits, byte-aligned realistic
  // bytes, messages, and the coalesced frames with their delta-varint bytes
  // (vv/frame_codec.h; with frame_budget == 0 every message is its own
  // frame, and model bits are identical with framing on or off). bits, bytes
  // and messages include the COMPARE probes if the session ran COMPARE;
  // frames never carry them. loop_events counts the event-loop dispatches.
  sim::LinkStats fwd;
  sim::LinkStats rev;
  std::uint64_t loop_events{0};

  // Element accounting at the receiver.
  std::uint64_t elems_sent{0};        // Elem messages transmitted by sender
  std::uint64_t elems_applied{0};     // |Δ|: new values written into a
  std::uint64_t elems_redundant{0};   // |Γ|: known elements processed pre-halt
  std::uint64_t elems_straggler{0};   // known elements ignored while skipping
  std::uint64_t elems_after_halt{0};  // pipelining overshoot past HALT
  std::uint64_t skip_msgs{0};         // SKIP requests sent (SRV)
  std::uint64_t segments_skipped{0};  // honored skips: observed γ (SRV)
  std::uint64_t ack_msgs{0};          // stop-and-wait acks (ablation modes)

  // Simulated time from session start to quiescence, and to the moment the
  // receiver was done (halted or saw the sender's end-of-vector).
  sim::Time duration{0};
  sim::Time receiver_done_at{0};

  // Fault injection and recovery (all zero / defaults on fault-free runs).
  // attempts counts full session runs inside sync_with_recovery; retries is
  // attempts - 1; recovery_bits is the model-bit traffic attributable to
  // retries (attempts past the first, including their re-COMPAREs).
  std::uint32_t attempts{1};
  std::uint32_t retries{0};
  std::uint64_t recovery_bits{0};
  bool converged{true};  // receiver == element-wise max when the call returned
  // Messages the cores ignored because they were impossible in the current
  // state (duplicates of already-consumed control messages, stale skips, ...).
  std::uint64_t protocol_violations{0};
  std::uint64_t faults_dropped{0};
  std::uint64_t faults_duplicated{0};
  std::uint64_t faults_reordered{0};
  std::uint64_t faults_corrupted{0};
  std::uint64_t faults_decode_errors{0};  // corruptions the typed codec caught

  // Root causal span of this sync (0 when causal tracing is off): the
  // session's span for a direct call, the recovery root under faults. The
  // repl systems attach kDeliver events to it so the analyzer can charge a
  // delivery's latency/bits/retries to the hop that carried it.
  std::uint64_t causal_span{0};

  std::uint64_t total_bits() const { return fwd.model_bits + rev.model_bits; }
  std::uint64_t total_bytes() const { return fwd.wire_bytes + rev.wire_bytes; }
  std::uint64_t total_frames() const { return fwd.frames + rev.frames; }
  std::uint64_t total_framed_bytes() const {
    return fwd.framed_wire_bytes + rev.framed_wire_bytes;
  }
  std::uint64_t total_faults() const {
    return faults_dropped + faults_duplicated + faults_reordered + faults_corrupted;
  }
};

// The Table 2 upper bound on one session's bits for this vector kind.
std::uint64_t table2_upper_bound_bits(const CostModel& cm, VectorKind kind);

// Does the session's measured traffic respect the Table 2 bound for this
// kind, plus the COMPARE probes sessions fold into their totals? Meaningful
// for kIdeal runs: pipelined sessions may overshoot by up to β =
// bandwidth·rtt (§3.1), and stop-and-wait acks are not in the bound.
bool within_table2_bound(const CostModel& cm, VectorKind kind, const SyncReport& r);

// SYNCB_b(a) — Algorithm 2. Requires a ∦ b (checked). After the call a's
// values equal max(a[i], b[i]): a becomes b when a ≺ b, stays a otherwise
// (Theorem 3.1).
SyncReport sync_basic(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                      const SyncOptions& opt);

// SYNCC_b(a) — Algorithm 3. Handles concurrent vectors; tags elements
// modified during reconciliation with conflict bits. The §2.2-mandated local
// increment after reconciliation is the caller's responsibility.
SyncReport sync_conflict(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                         const SyncOptions& opt);

// SYNCS_b(a) — Algorithm 4. Like SYNCC but skips whole segments the receiver
// already knows, using segment bits; O(|Δ|+γ) communication.
SyncReport sync_skip(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                     const SyncOptions& opt);

// Dispatch on opt.kind.
SyncReport sync_rotating(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                         const SyncOptions& opt);

// Fault-tolerant wrapper: runs sync_rotating under opt.net.faults, then
// re-COMPAREs (exact compare_full — faulted partial syncs may leave vectors
// outside the at-rest states compare_fast assumes) and retries with bounded
// exponential backoff (opt.retry) until the receiver covers the sender or
// the retry budget runs out. Each attempt derives an independent fault seed
// via sim::fault_attempt_seed. With faults disabled this is exactly
// sync_rotating. BRV + concurrent vectors run one best-effort pass
// (SYNCB cannot reconcile ‖; report.converged reflects the outcome).
//
// Atomicity: every attempt starts from the receiver's pre-call state — the
// protocols' receiver-halt rule is only sound against a prefix-closed
// receiver, which a faulted partial application is not — and when the call
// returns with report.converged == false the receiver is left exactly as it
// was (partial progress is discarded, its traffic charged to recovery_bits).
SyncReport sync_with_recovery(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                              const SyncOptions& opt);

// Traditional baseline: ship the entire vector, receiver joins element-wise.
SyncReport sync_traditional(sim::EventLoop& loop, VersionVector& a, const VersionVector& b,
                            const SyncOptions& opt);

// Singhal–Kshemkalyani [23] baseline: the sender remembers, per destination,
// the vector it last sent there (`last_sent`, caller-owned state) and ships
// only elements that grew since. O(n) extra state per destination.
SyncReport sync_singhal_kshemkalyani(sim::EventLoop& loop, VersionVector& a,
                                     const VersionVector& b, VersionVector& last_sent,
                                     const SyncOptions& opt);

// Message sizing shared with benches.
std::uint64_t msg_model_bits(const CostModel& cm, VectorKind kind, const VvMsg& m);
std::uint64_t msg_wire_bytes(VectorKind kind, const VvMsg& m);

// The COMPARE protocol (Algorithm 1) as a distributed session: both sites
// transmit their front element simultaneously and each decides locally.
// Costs exactly 2·log(mn) bits and one half round trip of simulated time.
struct CompareSessionResult {
  Ordering at_a{Ordering::kEqual};  // a's verdict about (a vs b)
  Ordering at_b{Ordering::kEqual};  // b's verdict about (b vs a)
  std::uint64_t total_bits{0};
  sim::Time duration{0};
};
CompareSessionResult compare_session(sim::EventLoop& loop, const RotatingVector& a,
                                     const RotatingVector& b, const sim::NetConfig& net,
                                     const CostModel& cost);

}  // namespace optrep::vv
