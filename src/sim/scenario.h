// Large-world gossip scenario engine: 10^4–10^6 sites on a Mesh
// (sim/topology.h), every replica's rotating vector carved from one shared
// per-world Arena (vv/arena.h), driven by seeded peer-sampling anti-entropy
// with scripted churn / partition / flash-crowd disturbances.
//
// The world executes in synchronous gossip ROUNDS over a dirty-site queue:
// a site is dirty while it owes pushes to neighbors it has not contacted
// since its state last changed. Each round, every dirty site contacts one
// neighbor (per-site round-robin cursor, seeded start) and runs a push-pull
// exchange: one COMPARE charge, then a directed SYNC session (vv/session.h
// or graph/sync_graph.h) in whichever direction the relation demands —
// both directions for a concurrent pair under CRV/SRV. A site goes clean
// when it has pushed to every neighbor since its last change, so an empty
// dirty queue means every edge has equalized since the last update — and by
// the monotone-join argument, every connected component has converged.
// Work per round is O(dirty wavefront), not O(n): a 10^5-site ring runs its
// ~n/2-round convergence wave in seconds.
//
// Fidelity note (§2.2): the engine deliberately omits the post-reconciliation
// local increment the paper mandates after automatic conflict resolution.
// That increment makes every reconciling site a writer, growing vector width
// toward n — exactly what a 10^6-site world cannot afford; bounding the
// writer set (Config::writers) is what keeps replicas O(w). The cost is that
// Algorithm 1's front-dominance precondition does not hold for merged
// vectors, so exchanges decide relations with an exact element-wise
// comparison (vv::compare_full, local) while charging the COMPARE protocol
// price of 2·log(mn) bits — traffic accounting matches the paper's probe,
// decision soundness comes from the oracle. Convergence and |Δ| traffic are
// unaffected (the join lattice is the same); per-element conflict-bit
// placement after merges is the repl systems' fidelity job, not this
// layer's. SYNCG worlds are single-writer for the analogous reason: the
// sink-DFS of Algorithm 5 ships sink ancestors only, so divergent sinks
// would need per-exchange merge operations — a different (and much
// chattier) protocol than the paper's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cost_model.h"
#include "common/rng.h"
#include "graph/causal_graph.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/frame_link.h"
#include "sim/topology.h"
#include "vv/arena.h"
#include "vv/rotating_vector.h"
#include "vv/session.h"

namespace optrep::graph {
struct GraphSyncReport;  // graph/sync_graph.h — only the .cc runs graph syncs
}

namespace optrep::sim {

// BRV/CRV/SRV run rotating-vector state transfer; SYNCG runs causal-graph
// metadata sync (Algorithm 5) over the same mesh and phase scripts.
enum class ScenarioAlgo : std::uint8_t { kBrv, kCrv, kSrv, kSyncg };

constexpr std::string_view to_string(ScenarioAlgo a) {
  switch (a) {
    case ScenarioAlgo::kBrv: return "brv";
    case ScenarioAlgo::kCrv: return "crv";
    case ScenarioAlgo::kSrv: return "srv";
    case ScenarioAlgo::kSyncg: return "syncg";
  }
  return "?";
}

class ScenarioWorld {
 public:
  struct Config {
    ScenarioAlgo algo{ScenarioAlgo::kSrv};
    std::uint32_t sites{1024};
    // Writer pool: updates come from `writers` sites spread evenly over the
    // mesh. Bounds vector width at w (+ flash writers), which is what makes
    // 10^5-site replicas a few hundred bytes each.
    std::uint32_t writers{8};
    MeshKind mesh{MeshKind::kRing};
    std::uint32_t degree{1};
    std::uint64_t seed{1};
    vv::TransferMode mode{vv::TransferMode::kIdeal};
    NetConfig net{};
    CostModel cost{};
    // Extra reserve() headroom per replica beyond the writer pool — the
    // flash-crowd phase adds one-shot writers, and the optimistic-read
    // pinning contract (vv/rotating_vector.h) requires width to be reserved
    // up front.
    std::uint32_t extra_writers{0};
  };

  explicit ScenarioWorld(const Config& cfg);
  ScenarioWorld(const ScenarioWorld&) = delete;
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;

  const Config& config() const { return cfg_; }
  const Mesh& mesh() const { return mesh_; }

  // ---- driving -----------------------------------------------------------

  // One local update at `site` (must be active): record_update on the
  // replica (or an appended graph op), advance the convergence oracle, and
  // mark the site dirty toward all its neighbors.
  void local_update(std::uint32_t site);

  // Next writer-pool site, round-robin, skipping offline sites.
  std::uint32_t next_writer();
  // j-th one-shot flash writer out of `total`, spread evenly over the mesh
  // (skips offline sites).
  std::uint32_t flash_site(std::uint32_t j, std::uint32_t total);

  // Run one gossip round over the current dirty set; returns the number of
  // exchanges performed. A no-op (returns 0) when no site is dirty.
  std::uint32_t gossip_round();

  // Partition the world into halves (site < n/2 vs the rest); cross-side
  // edges are blocked until healed. Healing marks every boundary site dirty
  // so the halves re-equalize.
  void set_partitioned(bool on);
  bool partitioned() const { return partitioned_; }

  // Take `count` random (seeded) active sites offline — they keep state but
  // neither initiate nor accept exchanges. bring_online reactivates all of
  // them, dirty, so they re-sync what they missed.
  void take_offline(std::uint32_t count);
  void bring_online();

  // ---- state -------------------------------------------------------------

  std::size_t dirty_count() const { return dirty_.size(); }
  bool converged() const { return eq_count_ == cfg_.sites; }
  std::uint32_t offline_count() const { return offline_; }

  struct Totals {
    std::uint64_t rounds{0};
    std::uint64_t updates{0};
    std::uint64_t compares{0};
    std::uint64_t sessions{0};       // directed SYNC sessions executed
    std::uint64_t bits{0};           // §3.3 model bits incl. COMPARE charges
    std::uint64_t wire_bytes{0};     // byte-aligned realistic encoding
    std::uint64_t msgs{0};
    std::uint64_t elems_applied{0};  // Σ|Δ| (vv algos)
    std::uint64_t nodes_applied{0};  // Σ new nodes (syncg)
    std::uint64_t reconciliations{0};  // concurrent pairs resolved (crv/srv)
    std::uint64_t conflicts_held{0};   // concurrent pairs brv/syncg cannot merge
  };
  const Totals& totals() const { return totals_; }

  // ---- observability -----------------------------------------------------

  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  const vv::Arena::Stats& arena_stats() const { return arena_.stats(); }
  // Σ memory_bytes over all replicas: rotating vectors, or causal graphs
  // for syncg. O(n).
  std::uint64_t replica_memory_bytes() const;

  // Refresh the cheap (O(1)) instruments: scenario.* counters/gauges and the
  // rt.arena.* gauges. Called per timeline sample and at end of run.
  void publish_metrics();
  // Refresh the O(n) footprint gauge (scenario.replica_bytes). Split from
  // publish_metrics so hot sampling loops can choose their cadence.
  void publish_memory_metrics();

 private:
  bool is_vv() const { return cfg_.algo != ScenarioAlgo::kSyncg; }
  bool side(std::uint32_t s) const { return s >= cfg_.sites / 2; }
  bool edge_blocked(std::uint32_t a, std::uint32_t b) const {
    return partitioned_ && side(a) != side(b);
  }

  void mark_dirty(std::uint32_t s);
  // Push-pull exchange between s and its chosen neighbor; returns whether
  // (s, nb) changed state, so the round loop can reset their push debts.
  std::pair<bool, bool> exchange(std::uint32_t s, std::uint32_t nb);
  void accumulate(const vv::SyncReport& r);
  void accumulate(const graph::GraphSyncReport& r);

  // Convergence oracle: the element-wise supremum of all updates issued so
  // far (≤ writers + flash entries for vv; a node count for syncg), plus a
  // lazily-epoch-validated per-site equality flag. Updates bump the epoch
  // (every stale flag means "not converged"); exchanges refresh the flags of
  // the two endpoints they touched. At quiescence every site's last exchange
  // postdates the last update, so eq_count_ is exact.
  void sup_set(std::uint32_t site, std::uint64_t value);
  bool equals_sup(std::uint32_t s) const;
  void refresh_eq(std::uint32_t s);

  Config cfg_;
  Mesh mesh_;
  vv::Arena arena_;
  EventLoop loop_;
  obs::Registry metrics_;

  std::vector<vv::RotatingVector> replicas_;  // vv algos
  std::vector<graph::CausalGraph> graphs_;    // syncg
  std::vector<std::uint64_t> next_seq_;       // syncg per-site op sequence
  std::uint64_t total_nodes_{0};              // syncg oracle

  std::vector<std::uint32_t> writer_sites_;
  std::uint32_t writer_cursor_{0};

  std::vector<std::uint32_t> cursor_;     // per-site round-robin neighbor index
  std::vector<std::uint32_t> remaining_;  // pushes owed since last change
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> dirty_;      // pending sites for the next round
  std::vector<std::uint32_t> round_;      // scratch: sites processed this round
  std::vector<std::uint32_t> offline_sites_;
  std::uint32_t offline_{0};
  bool partitioned_{false};

  std::vector<std::pair<std::uint32_t, std::uint64_t>> sup_;  // sorted by site
  std::vector<std::uint8_t> eq_;
  std::vector<std::uint64_t> eq_epoch_;
  std::uint64_t sup_epoch_{0};
  std::uint32_t eq_count_{0};

  Rng churn_rng_;
  Totals totals_;
};

}  // namespace optrep::sim
