// The ground truth the repl systems derive from state they already keep,
// checked against the explicit bookkeeping it replaced.
//
// StateSystem: by Observation 2.1 (§2.2) a replica's causal history — the
// predecessor set of the update ids it has absorbed — is the per-site prefix
// set of its oracle vector, and COMPARE's verdict is the histories' subset
// order. A test-side meta::PredecessorSet per replica, advanced only from what
// each call reports (local updates and SyncOutcome actions), checks both on
// generated traces: automatic SRV/CRV, manual BRV, lossy networks and
// run_batch. With a causal tracer attached, each sync's kDeliver ids must be
// exactly the updates the receiver's history gains.
//
// OpSystem: divergence() subtracts each graph's node count from the object's
// operation registry; the reference counts against the per-object union of
// every replica's graph nodes instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "metadata/predecessor_set.h"
#include "obs/causal.h"
#include "repl/op_system.h"
#include "repl/state_system.h"
#include "rt/thread_pool.h"
#include "workload/trace.h"

namespace optrep::repl {
namespace {

using BE = StateSystem::BatchEvent;
using Key = std::pair<std::uint32_t, std::uint32_t>;  // (site, object)

wl::Trace make_trace(std::uint32_t n_sites, std::uint64_t seed, double update_prob = 0.4) {
  wl::GeneratorConfig g;
  g.n_sites = n_sites;
  g.n_objects = 2;
  g.steps = 300;
  g.update_prob = update_prob;
  g.seed = seed;
  return wl::generate(g);
}

// The trace as the calls a driver makes (wl::run_state's rules): an update at
// a site without a replica first pulls from the object's creator, and a sync
// from a site without a replica is dropped.
std::vector<BE> plan(const wl::Trace& trace) {
  std::vector<SiteId> creator(trace.n_objects);
  std::set<Key> present;
  std::vector<BE> out;
  for (const wl::Event& e : trace.events) {
    const std::string entry = "e" + std::to_string(out.size());
    switch (e.type) {
      case wl::Event::Type::kCreate:
        creator[e.obj.value] = e.site;
        out.push_back({BE::Type::kCreate, e.site, {}, e.obj, entry});
        break;
      case wl::Event::Type::kUpdate:
        if (!present.contains({e.site.value, e.obj.value})) {
          out.push_back({BE::Type::kSync, e.site, creator[e.obj.value], e.obj, {}});
        }
        out.push_back({BE::Type::kUpdate, e.site, {}, e.obj, entry});
        break;
      case wl::Event::Type::kSync:
        if (!present.contains({e.peer.value, e.obj.value})) continue;
        out.push_back({BE::Type::kSync, e.site, e.peer, e.obj, {}});
        break;
    }
    present.insert({e.site.value, e.obj.value});
  }
  return out;
}

// {(i, s) : 1 <= s <= v[i]}: the history a version vector stands for.
meta::PredecessorSet prefix_set(const vv::VersionVector& v) {
  meta::PredecessorSet p;
  for (const auto& [site, top] : v.elements()) {
    for (std::uint64_t s = 1; s <= top; ++s) p.record_update({site, s});
  }
  return p;
}

// The explicit causal history of every replica, advanced only from what the
// system reports.
class HistoryMirror {
 public:
  // A local update or creation at `site`: the site's next update id.
  void update(SiteId site, ObjectId obj) {
    at(site, obj).record_update({site, ++seq_[{site.value, obj.value}]});
  }

  // One sync's effect: COMPARE's verdict must be the subset order of the two
  // histories; a pull or reconciliation joins them, and a reconciliation is a
  // local update of the receiver (§2.2). `delivered` are the sync's kDeliver
  // ids when traced.
  void sync(SiteId dst, SiteId src, ObjectId obj, const SyncOutcome& out,
            const std::vector<UpdateId>* delivered = nullptr) {
    using A = SyncOutcome::Action;
    if (out.action == A::kSkipped) return;  // no COMPARE ran
    meta::PredecessorSet& r = at(dst, obj);
    const meta::PredecessorSet& s = at(src, obj);
    EXPECT_EQ(out.relation, r.compare(s)) << "sync " << dst.value << " <- " << src.value;
    const bool merged = out.action == A::kPulled || out.action == A::kReconciled;
    if (delivered != nullptr) {
      // Strictly ascending ids, each one the sender knows and the receiver
      // does not — as many as the join adds, so exactly the difference.
      for (std::size_t i = 0; i < delivered->size(); ++i) {
        const UpdateId& u = (*delivered)[i];
        EXPECT_TRUE(s.contains(u) && !r.contains(u)) << update_name(u);
        if (i > 0) {
          EXPECT_LT((*delivered)[i - 1], u);
        }
      }
      if (!merged) {
        EXPECT_TRUE(delivered->empty());
      }
    }
    if (!merged) return;
    const std::size_t before = r.size();
    r.join(s);
    if (delivered != nullptr) {
      EXPECT_EQ(delivered->size(), r.size() - before);
    }
    if (out.action == A::kReconciled) update(dst, obj);
  }

  // Every replica's oracle vector stands for exactly its mirrored history.
  void expect_matches(const StateSystem& sys, std::uint32_t n_objects) {
    for (std::uint32_t o = 0; o < n_objects; ++o) {
      for (const SiteId site : sys.hosts_of(ObjectId{o})) {
        const vv::VersionVector& v = sys.replica(site, ObjectId{o}).oracle_vector;
        ASSERT_TRUE(prefix_set(v) == at(site, ObjectId{o}))
            << "site " << site.value << " object " << o << ": " << v.to_string();
      }
    }
  }

 private:
  meta::PredecessorSet& at(SiteId site, ObjectId obj) {
    return hist_[{site.value, obj.value}];
  }

  std::map<Key, meta::PredecessorSet> hist_;
  std::map<Key, std::uint64_t> seq_;
};

// The kDeliver ids recorded from ring index `from` on.
std::vector<UpdateId> deliveries(const obs::CausalTracer& t, std::size_t from) {
  EXPECT_EQ(t.dropped(), 0u);
  std::vector<UpdateId> out;
  for (std::size_t i = from; i < t.size(); ++i) {
    const obs::CausalEvent& e = t.event(i);
    if (e.type == obs::CausalEventType::kDeliver) out.push_back({e.site, e.seq});
  }
  return out;
}

// Drives `sys` through the trace one call at a time, checking the mirror
// after every event.
void replay(StateSystem& sys, const wl::Trace& trace) {
  HistoryMirror m;
  obs::CausalTracer* causal = sys.config().causal;
  for (const BE& ev : plan(trace)) {
    switch (ev.type) {
      case BE::Type::kCreate:
        sys.create_object(ev.site, ev.obj, ev.entry);
        m.update(ev.site, ev.obj);
        break;
      case BE::Type::kUpdate:
        // Manual resolution holds conflicting replicas (and blocks the pull
        // that would have created one) until resolved.
        if (!sys.has_replica(ev.site, ev.obj) || sys.replica(ev.site, ev.obj).conflicted) {
          break;
        }
        sys.update(ev.site, ev.obj, ev.entry);
        m.update(ev.site, ev.obj);
        break;
      case BE::Type::kSync: {
        const std::size_t mark = causal != nullptr ? causal->size() : 0;
        const SyncOutcome out = sys.sync(ev.site, ev.peer, ev.obj);
        if (causal == nullptr) {
          m.sync(ev.site, ev.peer, ev.obj, out);
        } else {
          const std::vector<UpdateId> d = deliveries(*causal, mark);
          m.sync(ev.site, ev.peer, ev.obj, out, &d);
        }
        break;
      }
    }
    m.expect_matches(sys, trace.n_objects);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

StateSystem::Config state_cfg(vv::VectorKind kind, std::uint32_t n_sites) {
  StateSystem::Config cfg;
  cfg.n_sites = n_sites;
  cfg.kind = kind;
  cfg.cost = CostModel{.n = n_sites, .m = 1 << 16};
  return cfg;
}

TEST(OracleMirror, AutomaticSrvAndCrvHistoriesArePrefixSets) {
  for (const vv::VectorKind kind : {vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      obs::CausalTracer causal(seed);
      StateSystem::Config cfg = state_cfg(kind, 6);
      cfg.causal = &causal;
      StateSystem sys(cfg);
      replay(sys, make_trace(6, seed));
      EXPECT_GT(sys.totals().reconciliations, 0u) << "the trace must exercise ‖";
    }
  }
}

TEST(OracleMirror, ManualBrvHistoriesArePrefixSets) {
  StateSystem::Config cfg = state_cfg(vv::VectorKind::kBrv, 6);
  cfg.policy = ResolutionPolicy::kManual;
  StateSystem sys(cfg);
  // Held replicas never rejoin, so few updates keep the fleet syncing longer.
  replay(sys, make_trace(6, 3, /*update_prob=*/0.1));
  EXPECT_GT(sys.totals().conflicts_detected, 0u) << "the trace must hold a conflict";
  EXPECT_GT(sys.totals().elems_applied, 0u);
}

TEST(OracleMirror, LossyHistoriesArePrefixSets) {
  obs::CausalTracer causal(4);
  StateSystem::Config cfg = state_cfg(vv::VectorKind::kSrv, 5);
  cfg.net.faults.drop = 0.3;
  cfg.net.faults.duplicate = 0.05;
  cfg.net.faults.seed = 9;
  cfg.causal = &causal;
  StateSystem sys(cfg);
  replay(sys, make_trace(5, 4));
  EXPECT_GT(sys.totals().retries, 0u);
  EXPECT_GT(sys.totals().sync_failures, 0u) << "failed syncs must leave the mirror alone";
}

TEST(OracleMirror, RunBatchHistoriesArePrefixSets) {
  rt::ThreadPool pool(3);
  for (const bool lossy : {false, true}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}}) {
      StateSystem::Config cfg = state_cfg(vv::VectorKind::kSrv, 6);
      if (lossy) {
        cfg.net.faults.drop = 0.1;
        cfg.net.faults.seed = 5;
      }
      StateSystem sys(cfg);
      HistoryMirror m;
      const wl::Trace trace = make_trace(6, 6);
      const std::vector<BE> events = plan(trace);
      for (std::size_t lo = 0; lo < events.size(); lo += chunk) {
        const std::vector<BE> batch(events.begin() + lo,
                                    events.begin() + std::min(lo + chunk, events.size()));
        const std::vector<SyncOutcome> outs = sys.run_batch(batch, pool);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].type == BE::Type::kSync) {
            m.sync(batch[i].site, batch[i].peer, batch[i].obj, outs[i]);
          } else {
            m.update(batch[i].site, batch[i].obj);
          }
        }
        m.expect_matches(sys, trace.n_objects);
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(sys.totals().reconciliations, 0u);
    }
  }
}

// divergence() counted the direct way: against the per-object union of every
// replica's graph nodes.
std::uint64_t union_divergence(const OpSystem& sys, std::uint32_t n_objects) {
  std::uint64_t d = 0;
  for (std::uint32_t o = 0; o < n_objects; ++o) {
    const std::vector<SiteId> hosts = sys.hosts_of(ObjectId{o});
    std::unordered_set<UpdateId> known;
    for (const SiteId h : hosts) {
      for (const graph::Node& n : sys.replica(h, ObjectId{o}).graph.all_nodes()) {
        known.insert(n.id);
      }
    }
    for (const SiteId h : hosts) {
      d += known.size() - sys.replica(h, ObjectId{o}).graph.node_count();
    }
  }
  return d;
}

TEST(OpDivergence, MatchesUnionCountAfterEveryEvent) {
  struct Case {
    const char* name;
    bool incremental;
    std::uint32_t log_limit;
  };
  for (const Case c : {Case{"incremental", true, 0}, Case{"log_limit", true, 4},
                       Case{"full_graph", false, 0}}) {
    SCOPED_TRACE(c.name);
    OpSystem::Config cfg;
    cfg.n_sites = 6;
    cfg.use_incremental = c.incremental;
    cfg.op_log_limit = c.log_limit;
    OpSystem sys(cfg);
    const wl::Trace trace = make_trace(6, 8);
    std::uint64_t peak = 0;
    for (const BE& ev : plan(trace)) {
      switch (ev.type) {
        case BE::Type::kCreate: sys.create_object(ev.site, ev.obj, ev.entry); break;
        case BE::Type::kUpdate: sys.update(ev.site, ev.obj, ev.entry); break;
        case BE::Type::kSync: sys.sync(ev.site, ev.peer, ev.obj); break;
      }
      const std::uint64_t d = sys.divergence();
      ASSERT_EQ(d, union_divergence(sys, trace.n_objects));
      peak = std::max(peak, d);
    }
    EXPECT_GT(peak, 0u);
    EXPECT_GT(sys.totals().reconciliations, 0u) << "merge nodes must be counted";
    if (c.log_limit > 0) {
      EXPECT_GT(sys.totals().state_fallbacks, 0u);
    }
  }
}

}  // namespace
}  // namespace optrep::repl
