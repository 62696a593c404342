// A complete operation-transfer optimistic replication system (§6) built on
// causal graphs: every replica logs operations as graph nodes; SYNCG ships
// only the missing sub-DAG; reconciliation adds a merge node as the new sink.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/cost_model.h"
#include "common/ids.h"
#include "graph/sync_graph.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "repl/replica_map.h"
#include "sim/event_loop.h"

namespace optrep::repl {

struct OpReplica {
  graph::CausalGraph graph;
  // Hybrid transfer (§6): the short operation history this site retains.
  // Only maintained when Config::op_log_limit > 0; ids of operations whose
  // payloads are still available locally, oldest first.
  std::deque<UpdateId> log_order;
  std::unordered_set<UpdateId> log;
};

struct OpSyncOutcome {
  vv::Ordering relation{vv::Ordering::kEqual};
  enum class Action : std::uint8_t { kNone, kFastForwarded, kReconciled, kSkipped }
      action{Action::kNone};
  graph::GraphSyncReport report;
  // Hybrid transfer: the sender no longer held some needed operation
  // payloads, so the whole object state was shipped instead (§6: "when a
  // replica is too old, the entire object is transmitted").
  bool state_fallback{false};
  std::uint64_t state_fallback_bytes{0};
};

class OpSystem {
 public:
  struct Config {
    std::uint32_t n_sites{4};
    vv::TransferMode mode{vv::TransferMode::kIdeal};
    sim::NetConfig net{};
    CostModel cost{};
    bool use_incremental{true};  // false: full-graph-transfer baseline
    // Hybrid transfer (§6): number of recent operations whose payloads each
    // site retains; 0 keeps everything (pure operation transfer). When a
    // peer needs an evicted payload, the session falls back to shipping the
    // whole object state.
    std::uint32_t op_log_limit{0};
    // Causal propagation tracing (obs/causal.h): every operation (including
    // reconciliation merge nodes) opens a trace; each sync's newly-absorbed
    // node ids (GraphSyncReport::new_node_ids) become kDeliver edges; a trace
    // closes (kConverge) when every current host's graph contains the node.
    // Operation transfer has no vv session spans, so delivers carry span 0 —
    // the analyzer still builds propagation trees from the (src, dst) edges.
    obs::CausalTracer* causal{nullptr};
  };

  explicit OpSystem(Config cfg) : cfg_(cfg) {
    // The fault model covers vv sessions only: graph synchronization has no
    // recovery wrapper, so a lossy network would silently lose operations.
    OPTREP_CHECK_MSG(!cfg_.net.faults.enabled(),
                     "fault injection is not supported for operation transfer");
  }

  const Config& config() const { return cfg_; }

  // Create the object on `site`; `content` is the initial operation payload.
  void create_object(SiteId site, ObjectId obj, std::string content);

  // Execute an operation on site's replica (appends a graph node).
  void update(SiteId site, ObjectId obj, std::string content);

  // dst pulls src's operations; fast-forwards or reconciles the sink.
  OpSyncOutcome sync(SiteId dst, SiteId src, ObjectId obj);

  bool has_replica(SiteId site, ObjectId obj) const { return replicas_.has(site, obj); }
  const OpReplica& replica(SiteId site, ObjectId obj) const { return replicas_.at(site, obj); }
  std::vector<SiteId> hosts_of(ObjectId obj) const { return replicas_.hosts_of(obj); }

  // Deterministic materialized state: operation contents in a topological,
  // id-tie-broken order. Two replicas with equal graphs materialize equally.
  std::string materialize(SiteId site, ObjectId obj) const;

  bool replicas_consistent(ObjectId obj) const {
    return replicas_.all_agree(
        obj, [](const OpReplica& r, const OpReplica& first) { return r.graph == first.graph; });
  }

  // Residual divergence: over every replica, the number of operations in the
  // per-object union of all replicas' causal graphs that this replica has not
  // absorbed yet. Zero iff every replica holds the full operation history.
  // That union is exactly the object's operation registry (every operation
  // is registered where it is created, and graphs never lose nodes), so this
  // is a subtraction per replica: O(replicas), no allocation. Published as the
  // `repl.divergence` gauge after every session.
  std::uint64_t divergence() const;

  struct Totals {
    std::uint64_t sessions{0};
    std::uint64_t bits{0};
    std::uint64_t bytes{0};
    // Frame batching (net.frame_budget): coalesced wire frames and their
    // delta-varint byte totals; frames == messages when framing is off.
    std::uint64_t frames{0};
    std::uint64_t framed_bytes{0};
    std::uint64_t nodes_sent{0};
    std::uint64_t nodes_redundant{0};
    std::uint64_t op_bytes{0};
    std::uint64_t reconciliations{0};
    std::uint64_t state_fallbacks{0};
    std::uint64_t state_fallback_bytes{0};
  };
  const Totals& totals() const { return totals_; }

  // Fleet metrics ("op.*" counters, a per-session-bits histogram, and "sim.*"
  // gauges from the event loop). Exported via obs::metrics_to_json.
  const obs::Registry& metrics() const { return metrics_; }
  obs::Registry& metrics() { return metrics_; }

 private:
  UpdateId fresh_op(SiteId site, ObjectId obj);
  void retain(OpReplica& r, UpdateId op);
  void publish_metrics();
  // Causal tracing helpers (no-ops when cfg_.causal is null).
  void causal_origin(ObjectId obj, const UpdateId& op);
  void causal_converge_check(ObjectId obj, const UpdateId& op);

  Config cfg_;
  sim::EventLoop loop_;
  ReplicaMap<OpReplica> replicas_;
  // Per-site, per-object operation sequence (a site's ops are serial, §2.1).
  std::unordered_map<SiteId, std::unordered_map<ObjectId, std::uint64_t>> seq_;
  // Operation contents, keyed per object (contents travel as node payloads;
  // the registry mirrors what every host would store in its log).
  std::unordered_map<ObjectId, std::map<UpdateId, std::string>> contents_;
  Totals totals_;
  obs::Registry metrics_;
};

}  // namespace optrep::repl
