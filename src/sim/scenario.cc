#include "sim/scenario.h"

#include <algorithm>

#include "graph/sync_graph.h"
#include "vv/compare.h"

namespace optrep::sim {

namespace {

constexpr std::uint32_t kNoSite = 0xffffffffu;

vv::VectorKind vector_kind(ScenarioAlgo a) {
  switch (a) {
    case ScenarioAlgo::kBrv: return vv::VectorKind::kBrv;
    case ScenarioAlgo::kCrv: return vv::VectorKind::kCrv;
    case ScenarioAlgo::kSrv: return vv::VectorKind::kSrv;
    case ScenarioAlgo::kSyncg: break;
  }
  OPTREP_CHECK_MSG(false, "scenario: not a vector algorithm");
  return vv::VectorKind::kSrv;
}

}  // namespace

ScenarioWorld::ScenarioWorld(const Config& cfg)
    : cfg_(cfg),
      mesh_(Mesh::build(cfg.mesh, cfg.sites, cfg.degree, cfg.seed)),
      churn_rng_(cfg.seed ^ 0x9d5c0f2ab54e613dULL) {
  OPTREP_CHECK_MSG(cfg_.sites >= 2, "scenario: need at least 2 sites");
  OPTREP_CHECK_MSG(cfg_.writers >= 1, "scenario: need at least 1 writer");
  OPTREP_CHECK_MSG(cfg_.algo != ScenarioAlgo::kSyncg || cfg_.writers == 1,
                   "scenario: syncg worlds are single-writer (header comment)");
  const std::uint32_t n = cfg_.sites;

  const std::uint32_t w = std::min(cfg_.writers, n);
  writer_sites_.reserve(w);
  for (std::uint32_t i = 0; i < w; ++i) {
    // i·n/w is strictly increasing for w ≤ n, so writer sites are distinct
    // and spread evenly around the mesh.
    writer_sites_.push_back(static_cast<std::uint32_t>(std::uint64_t{i} * n / w));
  }

  if (is_vv()) {
    // Vector width is bounded by the distinct writer set (pool + flash
    // headroom); reserving it up front is both the zero-alloc steady state
    // and the optimistic-read capacity contract. Every replica's columns are
    // carved from the shared per-world arena.
    const std::size_t width =
        std::min<std::size_t>(n, std::size_t{w} + cfg_.extra_writers);
    replicas_.resize(n);
    for (auto& r : replicas_) {
      r.attach_arena(&arena_);
      r.reserve(width);
    }
  } else {
    // All graphs share one genesis operation (site 0, seq 1) so any two are
    // always comparable from a common source.
    graphs_.resize(n);
    next_seq_.assign(n, 0);
    const UpdateId genesis{SiteId{0}, 1};
    for (auto& g : graphs_) g.create(genesis);
    next_seq_[0] = 1;
    total_nodes_ = 1;
  }

  cursor_.assign(n, 0);
  remaining_.assign(n, 0);
  active_.assign(n, 1);
  queued_.assign(n, 0);
  eq_.assign(n, 1);  // empty world: every replica equals the (empty) supremum
  eq_epoch_.assign(n, 0);
  eq_count_ = n;

  Rng cursor_rng(cfg_.seed ^ 0x2b7e151628aed2a6ULL);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t deg = mesh_.degree(s);
    cursor_[s] = deg == 0 ? 0 : static_cast<std::uint32_t>(cursor_rng.below(deg));
  }
  loop_.reserve(256);
}

// ---- updates ---------------------------------------------------------------

void ScenarioWorld::local_update(std::uint32_t site) {
  OPTREP_CHECK_MSG(site < cfg_.sites, "local_update: site out of range");
  OPTREP_CHECK_MSG(active_[site] != 0, "local_update: site is offline");
  ++totals_.updates;
  if (is_vv()) {
    replicas_[site].record_update(SiteId{site});
    sup_set(site, replicas_[site].value(SiteId{site}));
  } else {
    const UpdateId id{SiteId{site}, ++next_seq_[site]};
    graphs_[site].append(id);
    ++total_nodes_;
  }
  // The supremum grew strictly: every equality flag from the previous epoch
  // is stale (false); only the updater can be equal right now.
  ++sup_epoch_;
  eq_count_ = 0;
  refresh_eq(site);
  mark_dirty(site);
}

std::uint32_t ScenarioWorld::next_writer() {
  const auto w = static_cast<std::uint32_t>(writer_sites_.size());
  for (std::uint32_t t = 0; t < w; ++t) {
    const std::uint32_t s = writer_sites_[writer_cursor_];
    writer_cursor_ = (writer_cursor_ + 1) % w;
    if (active_[s] != 0) return s;
  }
  OPTREP_CHECK_MSG(false, "next_writer: every writer site is offline");
  return 0;
}

std::uint32_t ScenarioWorld::flash_site(std::uint32_t j, std::uint32_t total) {
  OPTREP_DCHECK(total > 0 && j < total);
  const auto s = static_cast<std::uint32_t>(std::uint64_t{j} * cfg_.sites / total);
  for (std::uint32_t t = 0; t < cfg_.sites; ++t) {
    const std::uint32_t c = (s + t) % cfg_.sites;
    if (active_[c] != 0) return c;
  }
  OPTREP_CHECK_MSG(false, "flash_site: every site is offline");
  return 0;
}

// ---- gossip ----------------------------------------------------------------

void ScenarioWorld::mark_dirty(std::uint32_t s) {
  remaining_[s] = mesh_.degree(s);
  if (queued_[s] == 0) {
    queued_[s] = 1;
    dirty_.push_back(s);
  }
}

std::uint32_t ScenarioWorld::gossip_round() {
  if (dirty_.empty()) return 0;
  ++totals_.rounds;
  // Swap the pending set out and process it in ascending site order; sites
  // dirtied (or re-dirtied) during the round land in the next round's set.
  round_.clear();
  round_.swap(dirty_);
  std::sort(round_.begin(), round_.end());
  for (const std::uint32_t s : round_) queued_[s] = 0;

  std::uint32_t exchanges = 0;
  for (const std::uint32_t s : round_) {
    // A site taken offline while dirty drops its obligation; bring_online
    // re-dirties it wholesale.
    if (active_[s] == 0) continue;
    const std::uint32_t deg = mesh_.degree(s);
    if (deg == 0) continue;

    std::uint32_t nb = kNoSite;
    std::uint32_t j = 0;
    for (; j < deg; ++j) {
      const std::uint32_t cand = mesh_.neighbor(s, (cursor_[s] + j) % deg);
      if (active_[cand] != 0 && !edge_blocked(s, cand)) {
        nb = cand;
        break;
      }
    }
    if (nb == kNoSite) {
      // No reachable peer this round (churn/partition); the push debt stays.
      if (queued_[s] == 0) {
        queued_[s] = 1;
        dirty_.push_back(s);
      }
      continue;
    }
    cursor_[s] = (cursor_[s] + j + 1) % deg;

    const auto [a_changed, b_changed] = exchange(s, nb);
    ++exchanges;

    // The pair is equalized either way; a state change resets the owner's
    // debt to its full neighborhood.
    if (a_changed) remaining_[s] = deg;
    if (remaining_[s] > 0) --remaining_[s];
    if (remaining_[s] > 0 && queued_[s] == 0) {
      queued_[s] = 1;
      dirty_.push_back(s);
    }
    if (b_changed) {
      remaining_[nb] = mesh_.degree(nb);
      if (queued_[nb] == 0) {
        queued_[nb] = 1;
        dirty_.push_back(nb);
      }
    }
  }
  return exchanges;
}

std::pair<bool, bool> ScenarioWorld::exchange(std::uint32_t s, std::uint32_t nb) {
  // Every exchange opens with one COMPARE probe each way (Algorithm 1's
  // traffic: 2·log(mn) bits, two messages) — for syncg the analogous sink-id
  // probe of the §6 containment test costs the same log n + log m each way.
  ++totals_.compares;
  totals_.bits += vv::compare_cost_bits(cfg_.cost);
  totals_.msgs += 2;

  bool a_changed = false;
  bool b_changed = false;
  if (is_vv()) {
    vv::RotatingVector& a = replicas_[s];
    vv::RotatingVector& b = replicas_[nb];
    // Relation decided by the exact local oracle, not compare_fast: without
    // the §2.2 post-reconciliation increment merged vectors are not at-rest
    // (header comment). The probe above already charged COMPARE's price.
    const vv::Ordering rel = vv::compare_full(a, b);
    if (rel != vv::Ordering::kEqual) {
      vv::SyncOptions opt;
      opt.kind = vector_kind(cfg_.algo);
      opt.mode = cfg_.mode;
      opt.net = cfg_.net;
      opt.cost = cfg_.cost;
      opt.known_relation = vv::Ordering::kBefore;  // receiver ≺ sender below
      if (rel == vv::Ordering::kBefore) {
        accumulate(vv::sync_rotating(loop_, a, b, opt));
        a_changed = true;
      } else if (rel == vv::Ordering::kAfter) {
        accumulate(vv::sync_rotating(loop_, b, a, opt));
        b_changed = true;
      } else if (cfg_.algo == ScenarioAlgo::kBrv) {
        // SYNCB cannot reconcile concurrent vectors (§3.1): the pair stays
        // divergent and the exchange carried only the COMPARE probes.
        ++totals_.conflicts_held;
      } else {
        // CRV/SRV reconcile: s absorbs the join, then nb (now strictly
        // behind) fast-forwards from s.
        opt.known_relation = vv::Ordering::kConcurrent;
        accumulate(vv::sync_rotating(loop_, a, b, opt));
        opt.known_relation = vv::Ordering::kBefore;
        accumulate(vv::sync_rotating(loop_, b, a, opt));
        ++totals_.reconciliations;
        a_changed = true;
        b_changed = true;
      }
    }
  } else {
    graph::CausalGraph& a = graphs_[s];
    graph::CausalGraph& b = graphs_[nb];
    const vv::Ordering rel = a.compare(b);
    if (rel != vv::Ordering::kEqual) {
      graph::GraphSyncOptions opt;
      opt.mode = cfg_.mode;
      opt.net = cfg_.net;
      opt.cost = cfg_.cost;
      opt.ship_ops = false;  // anti-entropy metadata round
      if (rel == vv::Ordering::kBefore) {
        accumulate(graph::sync_graph(loop_, a, b, opt));
        a.set_sink(b.sink());  // dominated union: fast-forward (§6)
        a_changed = true;
      } else if (rel == vv::Ordering::kAfter) {
        accumulate(graph::sync_graph(loop_, b, a, opt));
        b.set_sink(a.sink());
        b_changed = true;
      } else {
        // Unreachable in a single-writer world (enforced at construction);
        // counted rather than CHECKed so a future multi-writer mode can
        // measure how often it would need merge operations.
        ++totals_.conflicts_held;
      }
    }
  }
  refresh_eq(s);
  refresh_eq(nb);
  return {a_changed, b_changed};
}

void ScenarioWorld::accumulate(const vv::SyncReport& r) {
  ++totals_.sessions;
  totals_.bits += r.total_bits();
  totals_.wire_bytes += r.total_bytes();
  totals_.msgs += r.fwd.messages + r.rev.messages;
  totals_.elems_applied += r.elems_applied;
}

void ScenarioWorld::accumulate(const graph::GraphSyncReport& r) {
  ++totals_.sessions;
  totals_.bits += r.total_bits();
  totals_.wire_bytes += r.fwd.wire_bytes + r.rev.wire_bytes;
  totals_.msgs += r.fwd.messages + r.rev.messages;
  totals_.nodes_applied += r.nodes_new;
}

// ---- disturbances ----------------------------------------------------------

void ScenarioWorld::set_partitioned(bool on) {
  if (partitioned_ == on) return;
  partitioned_ = on;
  if (on) return;
  // Heal: every active site with a cross-side edge owes pushes again, so the
  // halves' suprema flow over the re-opened boundary.
  for (std::uint32_t s = 0; s < cfg_.sites; ++s) {
    if (active_[s] == 0) continue;
    const std::uint32_t deg = mesh_.degree(s);
    for (std::uint32_t j = 0; j < deg; ++j) {
      if (side(mesh_.neighbor(s, j)) != side(s)) {
        mark_dirty(s);
        break;
      }
    }
  }
}

void ScenarioWorld::take_offline(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (offline_ + 1 >= cfg_.sites) break;  // keep at least one site up
    auto s = static_cast<std::uint32_t>(churn_rng_.below(cfg_.sites));
    while (active_[s] == 0) s = (s + 1) % cfg_.sites;
    active_[s] = 0;
    offline_sites_.push_back(s);
    ++offline_;
  }
}

void ScenarioWorld::bring_online() {
  for (const std::uint32_t s : offline_sites_) {
    active_[s] = 1;
    // Dirty in both roles: push what it wrote before going down, and pull
    // (via the exchange's symmetry) everything it missed.
    mark_dirty(s);
  }
  offline_sites_.clear();
  offline_ = 0;
}

// ---- convergence oracle ----------------------------------------------------

void ScenarioWorld::sup_set(std::uint32_t site, std::uint64_t value) {
  auto it = std::lower_bound(
      sup_.begin(), sup_.end(), site,
      [](const std::pair<std::uint32_t, std::uint64_t>& p, std::uint32_t s) {
        return p.first < s;
      });
  if (it != sup_.end() && it->first == site) {
    it->second = value;
  } else {
    sup_.insert(it, {site, value});
  }
}

bool ScenarioWorld::equals_sup(std::uint32_t s) const {
  if (!is_vv()) return graphs_[s].node_count() == total_nodes_;
  const vv::RotatingVector& v = replicas_[s];
  if (v.size() != sup_.size()) return false;
  for (const auto& [site, val] : sup_) {
    if (v.value(SiteId{site}) != val) return false;
  }
  return true;
}

void ScenarioWorld::refresh_eq(std::uint32_t s) {
  const bool was = eq_epoch_[s] == sup_epoch_ && eq_[s] != 0;
  const bool now = equals_sup(s);
  eq_epoch_[s] = sup_epoch_;
  eq_[s] = now ? 1 : 0;
  if (now && !was) ++eq_count_;
  if (!now && was) --eq_count_;
}

// ---- observability ---------------------------------------------------------

std::uint64_t ScenarioWorld::replica_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : replicas_) total += r.memory_bytes();
  for (const auto& g : graphs_) total += g.memory_bytes();
  return total;
}

void ScenarioWorld::publish_metrics() {
  metrics_.counter("scenario.rounds").set(totals_.rounds);
  metrics_.counter("scenario.updates").set(totals_.updates);
  metrics_.counter("scenario.compares").set(totals_.compares);
  metrics_.counter("scenario.sessions").set(totals_.sessions);
  metrics_.counter("scenario.bits").set(totals_.bits);
  metrics_.counter("scenario.wire_bytes").set(totals_.wire_bytes);
  metrics_.counter("scenario.msgs").set(totals_.msgs);
  metrics_.counter("scenario.elems_applied").set(totals_.elems_applied);
  metrics_.counter("scenario.nodes_applied").set(totals_.nodes_applied);
  metrics_.counter("scenario.reconciliations").set(totals_.reconciliations);
  metrics_.counter("scenario.conflicts_held").set(totals_.conflicts_held);
  metrics_.gauge("scenario.dirty_sites").set(static_cast<std::int64_t>(dirty_.size()));
  metrics_.gauge("scenario.converged_replicas").set(static_cast<std::int64_t>(eq_count_));
  metrics_.gauge("scenario.offline_sites").set(static_cast<std::int64_t>(offline_));
  const vv::Arena::Stats& a = arena_.stats();
  metrics_.gauge("rt.arena.reserved_bytes").set(static_cast<std::int64_t>(a.reserved_bytes));
  metrics_.gauge("rt.arena.live_bytes").set(static_cast<std::int64_t>(a.live_bytes));
  metrics_.gauge("rt.arena.retired_bytes").set(static_cast<std::int64_t>(a.retired_bytes));
  metrics_.gauge("rt.arena.high_water_bytes")
      .set(static_cast<std::int64_t>(a.high_water_bytes));
  metrics_.gauge("rt.arena.slabs").set(static_cast<std::int64_t>(a.slabs));
}

void ScenarioWorld::publish_memory_metrics() {
  metrics_.gauge("scenario.replica_bytes")
      .set(static_cast<std::int64_t>(replica_memory_bytes()));
  metrics_.gauge("scenario.mesh_bytes").set(static_cast<std::int64_t>(mesh_.memory_bytes()));
}

}  // namespace optrep::sim
