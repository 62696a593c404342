// A complete state-transfer optimistic replication system (§2.1) built on
// rotating vectors: sites host replicas of objects, updates mutate payloads
// and rotate vectors, and synchronization sessions run the paper's protocols
// over the simulated network.
//
// The harness continuously cross-checks the rotating-vector implementation
// against one oracle: a traditional VersionVector carried next to every
// replica. Its values must match after every operation, and its compare()
// validates conflict detection — by Observation 2.1 (§2.2) it is the compact
// form of the replica's causal history: the replica knows update (i, u) iff
// oracle_vector[i] >= u.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/ids.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "repl/replica_map.h"
#include "repl/vector_sync.h"
#include "rt/olock.h"
#include "rt/shard.h"
#include "rt/thread_pool.h"
#include "sim/event_loop.h"
#include "vv/compare.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"
#include "vv/version_vector.h"

namespace optrep::repl {

// §1/§2.1: manual resolution excludes conflicting replicas from the system
// (BRV-class systems); automatic resolution reconciles them (CRV/SRV-class).
enum class ResolutionPolicy : std::uint8_t { kManual, kAutomatic };

// Replica content: a set of entries (think lines of a replicated file or
// records of a log). The automatic resolver is set union — a deterministic
// merge both sides agree on.
struct Payload {
  std::set<std::string> entries;

  void merge(const Payload& other) { entries.insert(other.entries.begin(), other.entries.end()); }
  bool operator==(const Payload&) const = default;
};

struct StateReplica {
  vv::RotatingVector vector;
  Payload data;
  bool conflicted{false};  // manual policy: excluded until resolved

  // Oracle (not part of the protocol state).
  vv::VersionVector oracle_vector;
};

// What a synchronization session did.
struct SyncOutcome {
  vv::Ordering relation{vv::Ordering::kEqual};
  enum class Action : std::uint8_t {
    kNone,         // already consistent
    kPulled,       // receiver overwritten by sender
    kPushedBack,   // receiver dominated; nothing pulled
    kReconciled,   // automatic conflict resolution ran
    kConflictHeld, // manual policy: replicas excluded, no transfer
    kSkipped,      // replica missing/excluded
    kFailed,       // fault injection: retry budget exhausted, no merge applied
  } action{Action::kNone};
  vv::SyncReport report;  // traffic of the vector exchange (zeroed for kNone paths)
  // Object content shipped by this session (Σ entry sizes on pull/reconcile
  // paths). Folded into Totals::payload_bytes by the accounting tail.
  std::uint64_t payload_bytes{0};
};

class StateSystem {
 public:
  struct Config {
    std::uint32_t n_sites{4};
    vv::VectorKind kind{vv::VectorKind::kSrv};
    ResolutionPolicy policy{ResolutionPolicy::kAutomatic};
    vv::TransferMode mode{vv::TransferMode::kIdeal};
    sim::NetConfig net{};
    CostModel cost{};
    // Cross-check against the traditional-vector oracle: its values after
    // every operation, and its compare() against every session's COMPARE.
    // Holds under fault injection too: vv::sync_with_recovery leaves a failed
    // sync's receiver exactly as it was, so the oracle only ever sees complete
    // at-rest merges.
    bool check_oracle{true};
    // Optional structured tracing: every session's protocol events land
    // here, tagged with a per-system session id (see src/obs/trace.h).
    obs::Tracer* tracer{nullptr};
    // Time-series telemetry (obs/timeline.h): with `timeline` set the system
    // samples its metric registry — including the repl.divergence convergence
    // probe — either every `timeline_every` completed sync sessions (axis
    // "sessions", the default) or, when timeline_every_s > 0, at every
    // timeline_every_s seconds of simulated time via the event loop's
    // time-advance sampler (axis "time_s").
    obs::Timeline* timeline{nullptr};
    std::uint32_t timeline_every{16};
    double timeline_every_s{0};
    // Optional flight recorder (obs/flight_recorder.h): wired into every
    // session's wire tap and fault observer; a Table 2 bound violation
    // triggers (freezes) it here, decode errors and retry exhaustion trigger
    // it inside the vv layer.
    obs::FlightRecorder* recorder{nullptr};
    // Causal propagation tracing (obs/causal.h): every local update opens a
    // trace (kOrigin), every sync session stamps send/recv/fault/apply edges
    // onto a per-attempt span tree, every pull records which update ids the
    // receiver learned (kDeliver, attributed to the session's root span), and
    // the system closes a trace (kConverge) the moment every current host of
    // the object covers the update. The delivery identities come from the
    // oracle vectors: a merge delivers, per site i, the range
    // (receiver[i], sender[i]]; a failed sync merges and delivers nothing.
    obs::CausalTracer* causal{nullptr};
  };

  explicit StateSystem(Config cfg);

  const Config& config() const { return cfg_; }

  // Create the object on `site` with an initial entry; counts as the first
  // update (the paper's replication graphs begin with an update, Figure 1).
  void create_object(SiteId site, ObjectId obj, std::string entry);

  // Local update: requires a (non-excluded) replica of obj at site.
  void update(SiteId site, ObjectId obj, std::string entry);

  // Synchronize dst's replica with src's (dst pulls; src is the sender).
  // Creates dst's replica if absent. Returns what happened plus traffic.
  SyncOutcome sync(SiteId dst, SiteId src, ObjectId obj);

  // ---- sharded parallel batch execution ----------------------------------
  //
  // run_batch executes a spec-order list of operations with replica-disjoint
  // sessions running concurrently. Each operation declares the replica it
  // writes (site, obj) and, for syncs, the replica it reads (peer, obj); the
  // list is split into waves by rt::plan_waves, every wave's sessions run in
  // parallel across a fixed 64-shard partition of the write keys, and each
  // session's side effects — totals, causal events, oracle convergence
  // bookkeeping — are committed sequentially in spec order after the wave
  // joins. The wave rules guarantee the execution is EXACTLY equivalent to
  // running the operations one by one (see rt/shard.h), so results are
  // byte-identical for any thread count.
  //
  // Requirements (checked): automatic resolution (manual mutates the sender,
  // which would break wave read-sharing), and no tracer / flight recorder /
  // timeline (all three are sequential per-session-order instruments; causal
  // tracing IS supported via per-session scratch rings absorbed in spec
  // order). Each session runs on a private clock from 0; the batch lays them
  // end to end in spec order from now(), which it then advances to the end,
  // so causal timestamps never run backward. Fault injection is supported
  // and deterministic: each session's fault stream derives from the
  // configured seed salted with the event's spec index, so faulty batches
  // are byte-identical for any thread count.
  // The stream differs from the sequential engine's, though — sequential
  // sessions decorrelate via the shared loop's cumulative event count, a
  // quantity only defined under in-order execution — so under ACTIVE faults
  // run_batch matches the sequential driver in protocol outcomes (eventual
  // consistency, final replica contents) but not in per-session traffic.
  // Fault-free batches are exactly byte-equivalent.
  struct BatchEvent {
    enum class Type : std::uint8_t { kCreate, kUpdate, kSync };
    Type type{Type::kSync};
    SiteId site{};   // replica written: update/create target, or sync receiver
    SiteId peer{};   // kSync only: the sender (read, never written)
    ObjectId obj{};
    std::string entry;  // kCreate/kUpdate payload
  };
  struct BatchStats {
    std::uint64_t waves{0};
    std::uint64_t max_wave_items{0};
    rt::OLock::Counters olock{};  // lock traffic attributable to this batch
  };
  // Returns one outcome per event, in spec order; kCreate/kUpdate slots hold
  // a default (kNone) outcome. `pool` supplies the workers; with one thread
  // the engine runs inline through the identical wave schedule.
  std::vector<SyncOutcome> run_batch(const std::vector<BatchEvent>& events,
                                     rt::ThreadPool& pool,
                                     BatchStats* stats = nullptr);

  // Total optimistic-lock traffic observed by run_batch so far (exported as
  // rt.olock.* counters once a batch has run).
  const rt::OLock::Counters& olock_totals() const { return olock_totals_; }

  bool has_replica(SiteId site, ObjectId obj) const { return replicas_.has(site, obj); }
  const StateReplica& replica(SiteId site, ObjectId obj) const { return replicas_.at(site, obj); }
  std::vector<SiteId> hosts_of(ObjectId obj) const { return replicas_.hosts_of(obj); }

  // All sites hosting obj agree on payload and metadata values.
  bool replicas_consistent(ObjectId obj) const {
    return replicas_.all_agree(obj, [](const StateReplica& r, const StateReplica& first) {
      return r.data == first.data &&
             r.vector.to_version_vector() == first.vector.to_version_vector();
    });
  }

  // Aggregated traffic over all sync sessions so far.
  struct Totals : SyncTotals {
    std::uint64_t bytes{0};
    std::uint64_t msgs{0};
    // Frame batching (net.frame_budget): coalesced wire frames and their
    // delta-varint byte totals; frames == msgs when framing is off.
    std::uint64_t frames{0};
    std::uint64_t framed_bytes{0};
    // Object content shipped: state transfer moves the whole payload on
    // every pull/reconciliation (§6 contrasts this with operation transfer).
    std::uint64_t payload_bytes{0};
    std::uint64_t elems_sent{0};
    std::uint64_t elems_applied{0};    // Σ|Δ| across sessions
    std::uint64_t elems_redundant{0};  // Σ|Γ|
    std::uint64_t skips{0};            // observed γ (honored segment skips)
    std::uint64_t conflicts_detected{0};
    std::uint64_t reconciliations{0};
  };
  const Totals& totals() const { return totals_; }

  // Fleet-level metrics: per-session aggregates from the vv layer ("vv.*")
  // plus system counters/histograms ("state.*") and simulator gauges
  // ("sim.*"). Exported via obs::metrics_to_json.
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }

  // Simulated clock shared by all sessions.
  sim::Time now() const { return loop_.now(); }

  // Residual divergence: distance of the fleet from the converged state.
  // Counts, over every (replica, site) pair, vector entries strictly below
  // the per-object element-wise supremum, plus one per excluded (conflicted)
  // replica. Zero iff every replica holds the element-wise max and none is
  // excluded. Order-independent sum — deterministic across map iteration
  // orders. Emitted as the `repl.divergence` gauge in timeline samples.
  std::uint64_t divergence() const;

  // Storage footprint of the fleet's rotating-vector metadata at allocated
  // capacity (SoA columns + free list + site index, see vv/arena.h). O(replicas);
  // sampled into state.replicas / state.vector_memory_bytes /
  // state.index_memory_bytes gauges with every timeline sample and exported
  // in the optrep.run/v1 "memory" object.
  struct MemoryStats {
    std::uint64_t replicas{0};
    std::uint64_t vector_bytes{0};  // Σ RotatingVector::memory_bytes (index included)
    std::uint64_t index_bytes{0};   // Σ site-index share alone
  };
  MemoryStats memory_stats() const;

  // Record one timeline sample now (no-op without cfg.timeline). The
  // session-count axis samples automatically every timeline_every sessions;
  // call this to flush a final sample at the end of a run. Samples taken at
  // an already-sampled session count are suppressed.
  void sample_timeline();

 private:
  // The causal side effects of one update or session, emitted once it
  // commits: inline for sequential calls, in spec order for run_batch.
  struct SessionEffects {
    std::vector<UpdateId> fresh;     // update ids the receiver learned
    std::optional<UpdateId> origin;  // local update / reconciliation update
  };

  // A local update's effect on one replica (payload, vector, oracles).
  UpdateId apply_update(StateReplica& r, SiteId site, std::string entry);
  // The system half of sync(): the shared vector-sync step (VectorSync::run),
  // then the manual hold, the payload/oracle effects and the §2.2 update,
  // recording the causal effects into fx. Pure over its arguments — `loop`
  // and the contact's registry and tracer are the system's own for
  // sequential calls and per-session/per-shard instances for parallel ones.
  SyncOutcome sync_pair(StateReplica& receiver, StateReplica& sender, sim::EventLoop& loop,
                        const VectorSync::Contact& c, SessionEffects& fx);
  // The accounting tail of sync(): VectorSync::account plus the
  // state-transfer totals.
  void finish_session(const SyncOutcome& out);
  // Causal emission (no-op without a tracer) of one committed update or
  // session at time `at`: a kDeliver per learned update carried by `span`
  // from src to dst, then the origin; each trace closes (kConverge) once
  // every host of obj holds the update — judged against run_batch's
  // spec-order `shadow` vectors when given, else the live replicas.
  void emit_effects(double at, ObjectId obj, const SessionEffects& fx, SiteId src = {},
                    SiteId dst = {}, std::uint64_t span = 0,
                    const ReplicaMap<vv::VersionVector>* shadow = nullptr);
  void check_replica(const StateReplica& r) const;
  void publish_metrics();
  void sample_timeline_at(double x);
  static void time_sample_thunk(void* ctx, sim::Time t);

  Config cfg_;
  VectorSync vsync_;
  sim::EventLoop loop_;
  ReplicaMap<StateReplica> replicas_;
  Totals totals_;
  obs::Registry metrics_;
  std::uint64_t sampled_at_sessions_{~std::uint64_t{0}};
  rt::OLock::Counters olock_totals_{};
  bool batch_ran_{false};
};

}  // namespace optrep::repl
