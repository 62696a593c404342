// Semantic-over-syntactic conflict detection (§1) on a replicated record
// store — the Bayou-class use case ([13], §2.1 "an object can be as large as
// a full-fledged relational database").
//
// §1's taxonomy: *syntactic* detection flags all causally-independent update
// pairs; *semantic-over-syntactic* detection uses the cheap syntactic signal
// as a trigger for a costlier application-level check that filters out
// false conflicts. §4 motivates SRV with exactly this pattern: "heavily
// updated objects can generate numerous syntactic-only conflicts (e.g., a
// replicated append-only log file)".
//
// Here the object is a keyed record store. A syntactic conflict (concurrent
// vectors, detected by COMPARE in O(1)) triggers the semantic detector,
// which inspects per-record provenance: two writes truly conflict only if
// they touched the same key, concurrently, with different values. Everything
// else merges silently. True conflicts resolve by policy (deterministic
// last-writer-wins, or flagging for manual repair).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/cost_model.h"
#include "common/ids.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repl/replica_map.h"
#include "repl/vector_sync.h"
#include "sim/event_loop.h"
#include "vv/compare.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"

namespace optrep::repl {

enum class SemanticPolicy : std::uint8_t {
  kLastWriterWins,  // deterministic resolution by largest writer id
  kFlag,            // keep local value, flag the record for manual repair
};

struct RecordCell {
  std::string value;
  UpdateId writer{};     // provenance: the update that wrote this value
  bool flagged{false};   // kFlag policy: unresolved true conflict

  friend bool operator==(const RecordCell&, const RecordCell&) = default;
};

struct RecordReplica {
  vv::RotatingVector vector;
  std::map<std::string, RecordCell> records;

  // Has this replica absorbed update `u`? Observation 2.1 in action: the
  // version vector is the compact representation of the predecessor set, so
  // provenance checks need no separate write log.
  bool has_seen(UpdateId u) const { return u.seq <= vector.value(u.site); }
};

class RecordSystem {
 public:
  struct Config {
    std::uint32_t n_sites{4};
    vv::VectorKind kind{vv::VectorKind::kSrv};
    SemanticPolicy policy{SemanticPolicy::kLastWriterWins};
    vv::TransferMode mode{vv::TransferMode::kIdeal};
    sim::NetConfig net{};
    CostModel cost{};
    // Optional structured tracing (see src/obs/trace.h).
    obs::Tracer* tracer{nullptr};
  };

  explicit RecordSystem(Config cfg)
      : cfg_(cfg),
        vsync_("records", cfg_.kind, cfg_.mode, cfg_.net, cfg_.cost, cfg_.tracer, nullptr) {}

  const Config& config() const { return cfg_; }

  // Create the store on `site` with one initial record.
  void create_object(SiteId site, ObjectId obj, const std::string& key,
                     std::string value);

  // Write one record on site's replica (an update in the §2.1 sense).
  void put(SiteId site, ObjectId obj, const std::string& key, std::string value);

  const RecordReplica& replica(SiteId site, ObjectId obj) const { return replicas_.at(site, obj); }
  bool has_replica(SiteId site, ObjectId obj) const { return replicas_.has(site, obj); }

  struct SyncResult {
    vv::Ordering relation{vv::Ordering::kEqual};
    bool syntactic_conflict{false};
    std::size_t semantic_conflicts{0};  // records that truly conflicted
    vv::SyncReport report;
  };

  // dst pulls from src: COMPARE, vector sync, then — on a syntactic
  // conflict — the semantic detector merges record-wise.
  SyncResult sync(SiteId dst, SiteId src, ObjectId obj);

  bool replicas_consistent(ObjectId obj) const {
    return replicas_.all_agree(obj, [](const RecordReplica& r, const RecordReplica& first) {
      return r.records == first.records;
    });
  }

  struct Totals : SyncTotals {
    std::uint64_t syntactic_conflicts{0};
    std::uint64_t syntactic_only{0};       // triggers the detector dismissed entirely
    std::uint64_t semantic_conflicts{0};   // truly conflicting record pairs
    std::uint64_t records_merged{0};       // silently merged on conflict syncs
    std::uint64_t flagged_records{0};      // kFlag policy only
  };
  const Totals& totals() const { return totals_; }

  // Fleet metrics ("vv.*" from sessions, "records.*" counters, "sim.*"
  // gauges). Exported via obs::metrics_to_json.
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }

 private:
  void publish_metrics();
  void apply_put(RecordReplica& r, SiteId site, const std::string& key,
                 std::string value);
  // The semantic detector + resolver: merge src's records into dst, judging
  // per-record causality against the receiver's pre-join vector snapshot and
  // the sender's (unchanged) vector. Returns the count of true conflicts.
  std::size_t semantic_merge(RecordReplica& dst, const RecordReplica& src,
                             const vv::VersionVector& dst_pre);

  Config cfg_;
  VectorSync vsync_;
  sim::EventLoop loop_;
  ReplicaMap<RecordReplica> replicas_;
  Totals totals_;
  obs::Registry metrics_;
};

}  // namespace optrep::repl
