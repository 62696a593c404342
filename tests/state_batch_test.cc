// StateSystem::run_batch / wl::run_state_parallel — the sharded wave engine
// must be EXACTLY equivalent to the sequential driver (rt/shard.h's wave
// argument): same RunStats, same Totals, same replica states, same causal
// dumps — and invariant in the worker thread count. These tests run the two
// engines side by side on generated traces (including under fault injection,
// whose per-session streams derive from the configured seed) and compare
// everything observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/causal.h"
#include "repl/state_system.h"
#include "rt/thread_pool.h"
#include "workload/trace.h"

namespace optrep {
namespace {

using repl::ResolutionPolicy;
using repl::StateSystem;

StateSystem::Config batch_cfg(vv::VectorKind kind, std::uint32_t n_sites) {
  StateSystem::Config cfg;
  cfg.n_sites = n_sites;
  cfg.kind = kind;
  cfg.policy = ResolutionPolicy::kAutomatic;
  cfg.cost = CostModel{.n = n_sites, .m = 1 << 16};
  return cfg;
}

wl::Trace make_trace(std::uint32_t n_sites, std::uint64_t seed) {
  wl::GeneratorConfig g;
  g.n_sites = n_sites;
  g.n_objects = 3;
  g.steps = 1200;
  g.update_prob = 0.4;
  g.seed = seed;
  return wl::generate(g);
}

void expect_same_totals(const StateSystem::Totals& a, const StateSystem::Totals& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.framed_bytes, b.framed_bytes);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.elems_sent, b.elems_sent);
  EXPECT_EQ(a.elems_applied, b.elems_applied);
  EXPECT_EQ(a.elems_redundant, b.elems_redundant);
  EXPECT_EQ(a.skips, b.skips);
  EXPECT_EQ(a.conflicts_detected, b.conflicts_detected);
  EXPECT_EQ(a.reconciliations, b.reconciliations);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.sync_failures, b.sync_failures);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.recovery_bits, b.recovery_bits);
  EXPECT_EQ(a.bound_violations, b.bound_violations);
}

void expect_same_stats(const wl::RunStats& a, const wl::RunStats& b) {
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.syncs, b.syncs);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.eventually_consistent, b.eventually_consistent);
  EXPECT_EQ(a.anti_entropy_rounds, b.anti_entropy_rounds);
}

void expect_same_state(const StateSystem& a, const StateSystem& b,
                       std::uint32_t n_objects) {
  for (std::uint32_t o = 0; o < n_objects; ++o) {
    const ObjectId obj{o};
    const std::vector<SiteId> ha = a.hosts_of(obj);
    ASSERT_EQ(ha, b.hosts_of(obj)) << "hosts diverge for object " << o;
    for (const SiteId site : ha) {
      const repl::StateReplica& ra = a.replica(site, obj);
      const repl::StateReplica& rb = b.replica(site, obj);
      EXPECT_EQ(ra.data, rb.data);
      EXPECT_TRUE(ra.vector.identical_to(rb.vector))
          << "site " << site.value << " object " << o << ": "
          << ra.vector.to_string() << " vs " << rb.vector.to_string();
      EXPECT_EQ(ra.conflicted, rb.conflicted);
      EXPECT_EQ(ra.oracle_vector, rb.oracle_vector);
    }
  }
}

TEST(StateBatch, MatchesSequentialDriverAcrossKindsAndSeeds) {
  for (const vv::VectorKind kind : {vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      const wl::Trace trace = make_trace(12, seed);

      StateSystem seq(batch_cfg(kind, trace.n_sites));
      const wl::RunStats s_seq = wl::run_state(seq, trace);

      StateSystem par(batch_cfg(kind, trace.n_sites));
      rt::ThreadPool pool(4);
      const wl::RunStats s_par = wl::run_state_parallel(par, trace, pool);

      expect_same_stats(s_seq, s_par);
      expect_same_totals(seq.totals(), par.totals());
      expect_same_state(seq, par, trace.n_objects);
      EXPECT_TRUE(s_par.eventually_consistent);
    }
  }
}

TEST(StateBatch, FaultInjectionIsThreadInvariantAndConverges) {
  // Under active faults the batch engine draws per-spec-index fault streams
  // (the sequential engine salts by cumulative loop events, a quantity that
  // does not exist under parallel execution — see StateSystem::run_batch),
  // so the guarantees are: (a) the batch engine is byte-identical across
  // thread counts, faults included; (b) both engines inject faults, retry,
  // and still drive every replica to the same converged contents.
  StateSystem::Config cfg = batch_cfg(vv::VectorKind::kSrv, 10);
  cfg.net.faults.drop = 0.05;
  cfg.net.faults.duplicate = 0.02;
  cfg.net.faults.seed = 11;
  const wl::Trace trace = make_trace(10, 3);

  StateSystem seq(cfg);
  const wl::RunStats s_seq = wl::run_state(seq, trace);

  StateSystem par1(cfg);
  rt::ThreadPool pool1(1);
  const wl::RunStats s_par1 = wl::run_state_parallel(par1, trace, pool1);
  StateSystem par4(cfg);
  rt::ThreadPool pool4(4);
  const wl::RunStats s_par4 = wl::run_state_parallel(par4, trace, pool4);

  // (a) thread-count invariance: everything matches, fault stats included.
  expect_same_stats(s_par1, s_par4);
  expect_same_totals(par1.totals(), par4.totals());
  expect_same_state(par1, par4, trace.n_objects);

  // (b) engine agreement on protocol outcomes.
  EXPECT_GT(seq.totals().faults_injected, 0u) << "fault smoke must actually fault";
  EXPECT_GT(par4.totals().faults_injected, 0u) << "fault smoke must actually fault";
  EXPECT_TRUE(s_seq.eventually_consistent);
  EXPECT_TRUE(s_par4.eventually_consistent);
  EXPECT_EQ(s_seq.updates, s_par4.updates);
  for (std::uint32_t o = 0; o < trace.n_objects; ++o) {
    const ObjectId obj{o};
    const std::vector<SiteId> hosts = seq.hosts_of(obj);
    ASSERT_EQ(hosts, par4.hosts_of(obj));
    for (const SiteId site : hosts) {
      // Converged CONTENTS are fault-independent (set-union resolution).
      // Vector values are not compared across engines: a reconciliation
      // bumps the resolver's component, and which sessions reconcile is a
      // function of the fault stream.
      EXPECT_EQ(seq.replica(site, obj).data, par4.replica(site, obj).data);
    }
  }
}

TEST(StateBatch, ThreadCountInvariantIncludingCausalDumps) {
  const wl::Trace trace = make_trace(12, 5);

  obs::CausalTracer t1(/*run_seed=*/42);
  StateSystem::Config c1 = batch_cfg(vv::VectorKind::kSrv, trace.n_sites);
  c1.causal = &t1;
  StateSystem sys1(c1);
  rt::ThreadPool pool1(1);
  StateSystem::BatchStats b1;
  const wl::RunStats s1 = wl::run_state_parallel(sys1, trace, pool1, true, &b1);

  obs::CausalTracer t4(/*run_seed=*/42);
  StateSystem::Config c4 = batch_cfg(vv::VectorKind::kSrv, trace.n_sites);
  c4.causal = &t4;
  StateSystem sys4(c4);
  rt::ThreadPool pool4(4);
  StateSystem::BatchStats b4;
  const wl::RunStats s4 = wl::run_state_parallel(sys4, trace, pool4, true, &b4);

  expect_same_stats(s1, s4);
  expect_same_totals(sys1.totals(), sys4.totals());
  expect_same_state(sys1, sys4, trace.n_objects);

  // The wave schedule is a function of the spec alone — identical plans,
  // identical lock traffic, for any worker count.
  EXPECT_EQ(b1.waves, b4.waves);
  EXPECT_EQ(b1.max_wave_items, b4.max_wave_items);
  EXPECT_EQ(b1.olock.acquisitions, b4.olock.acquisitions);
  EXPECT_EQ(b1.olock.opt_retries, b4.olock.opt_retries);
  EXPECT_EQ(b1.olock.queue_waits, b4.olock.queue_waits);
  EXPECT_GT(b1.waves, 0u);
  EXPECT_GT(b1.olock.acquisitions, 0u);

  // Byte-identical causal dumps: span ids, event order, everything.
  EXPECT_EQ(obs::causal_to_json(t1), obs::causal_to_json(t4));
}

TEST(StateBatch, EmptyBatchIsANoOp) {
  StateSystem sys(batch_cfg(vv::VectorKind::kSrv, 4));
  rt::ThreadPool pool(2);
  StateSystem::BatchStats stats;
  const std::vector<repl::SyncOutcome> out = sys.run_batch({}, pool, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.waves, 0u);
  EXPECT_EQ(sys.totals().sessions, 0u);
}

TEST(StateBatch, MixedBatchMatchesDirectCalls) {
  const SiteId A{0}, B{1}, C{2};
  const ObjectId kObj{0};

  StateSystem direct(batch_cfg(vv::VectorKind::kSrv, 4));
  direct.create_object(A, kObj, "base");
  direct.update(A, kObj, "a1");
  direct.sync(B, A, kObj);
  direct.sync(C, A, kObj);
  direct.update(B, kObj, "b1");
  direct.update(C, kObj, "c1");
  direct.sync(B, C, kObj);

  StateSystem batched(batch_cfg(vv::VectorKind::kSrv, 4));
  rt::ThreadPool pool(3);
  using BE = StateSystem::BatchEvent;
  const std::vector<repl::SyncOutcome> out = batched.run_batch(
      {
          BE{BE::Type::kCreate, A, {}, kObj, "base"},
          BE{BE::Type::kUpdate, A, {}, kObj, "a1"},
          BE{BE::Type::kSync, B, A, kObj, {}},
          BE{BE::Type::kSync, C, A, kObj, {}},  // shares sender A with the row above
          BE{BE::Type::kUpdate, B, {}, kObj, "b1"},
          BE{BE::Type::kUpdate, C, {}, kObj, "c1"},
          BE{BE::Type::kSync, B, C, kObj, {}},  // concurrent edit -> reconciliation
      },
      pool);

  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[2].action, repl::SyncOutcome::Action::kPulled);
  EXPECT_EQ(out[6].action, repl::SyncOutcome::Action::kReconciled);
  expect_same_totals(direct.totals(), batched.totals());
  expect_same_state(direct, batched, 1);
}

TEST(StateBatchDeath, RejectsManualResolutionAndSequentialInstruments) {
  rt::ThreadPool pool(2);
  {
    StateSystem::Config cfg = batch_cfg(vv::VectorKind::kCrv, 4);
    cfg.policy = ResolutionPolicy::kManual;
    StateSystem sys(cfg);
    EXPECT_DEATH(sys.run_batch({}, pool), "requires automatic resolution");
  }
  {
    StateSystem::Config cfg = batch_cfg(vv::VectorKind::kSrv, 4);
    obs::Tracer tracer;
    cfg.tracer = &tracer;
    StateSystem sys(cfg);
    EXPECT_DEATH(sys.run_batch({}, pool), "per-session instruments");
  }
}

}  // namespace
}  // namespace optrep
