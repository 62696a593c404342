#include <gtest/gtest.h>

#include <string>

#include "obs/flight_recorder.h"
#include "repl/state_system.h"
#include "workload/trace.h"

namespace optrep::repl {
namespace {

const SiteId A{0}, B{1}, C{2};
const ObjectId kObj{0};

StateSystem::Config auto_cfg(vv::VectorKind kind = vv::VectorKind::kSrv) {
  StateSystem::Config cfg;
  cfg.n_sites = 4;
  cfg.kind = kind;
  cfg.policy = ResolutionPolicy::kAutomatic;
  cfg.cost = CostModel{.n = 8, .m = 1024};
  return cfg;
}

TEST(StateSystem, CreateAndLocalUpdate) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.update(A, kObj, "v2");
  const StateReplica& r = sys.replica(A, kObj);
  EXPECT_EQ(r.vector.value(A), 2u);
  EXPECT_EQ(r.data.entries.size(), 2u);
}

TEST(StateSystem, PullPropagatesState) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kPulled);
  EXPECT_TRUE(sys.replicas_consistent(kObj));
  EXPECT_EQ(sys.replica(B, kObj).data, sys.replica(A, kObj).data);
}

TEST(StateSystem, EqualReplicasExchangeOnlyProbes) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kNone);
  EXPECT_EQ(out.report.total_bits(), vv::compare_cost_bits(sys.config().cost));
}

TEST(StateSystem, DominatingReceiverPullsNothing) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  sys.update(B, kObj, "v2");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kPushedBack);
  EXPECT_EQ(out.report.elems_sent, 0u);
}

TEST(StateSystem, AutomaticReconciliationMergesPayloads) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "base");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "from-A");
  sys.update(B, kObj, "from-B");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.relation, vv::Ordering::kConcurrent);
  EXPECT_EQ(out.action, SyncOutcome::Action::kReconciled);
  const StateReplica& rb = sys.replica(B, kObj);
  EXPECT_TRUE(rb.data.entries.contains("from-A"));
  EXPECT_TRUE(rb.data.entries.contains("from-B"));
  // §2.2 mandated post-reconciliation update: B's element grew by one extra.
  EXPECT_EQ(rb.vector.value(B), 2u);
  EXPECT_EQ(sys.totals().reconciliations, 1u);

  // Push the merged state back: A now simply precedes B.
  auto back = sys.sync(A, B, kObj);
  EXPECT_EQ(back.action, SyncOutcome::Action::kPulled);
  EXPECT_TRUE(sys.replicas_consistent(kObj));
}

TEST(StateSystem, ManualPolicyExcludesConflictingReplicas) {
  auto cfg = auto_cfg(vv::VectorKind::kBrv);
  cfg.policy = ResolutionPolicy::kManual;
  StateSystem sys(cfg);
  sys.create_object(A, kObj, "base");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "from-A");
  sys.update(B, kObj, "from-B");
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kConflictHeld);
  EXPECT_TRUE(sys.replica(A, kObj).conflicted);
  EXPECT_TRUE(sys.replica(B, kObj).conflicted);
  // Excluded replicas neither update nor synchronize.
  auto again = sys.sync(C, A, kObj);
  EXPECT_EQ(again.action, SyncOutcome::Action::kSkipped);
  EXPECT_EQ(sys.totals().conflicts_detected, 1u);
}

TEST(StateSystem, BrvRequiresManualPolicy) {
  auto cfg = auto_cfg(vv::VectorKind::kBrv);
  EXPECT_DEATH(StateSystem{cfg}, "BRV supports no conflict reconciliation");
}

TEST(StateSystem, SelfSyncRejected) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  EXPECT_DEATH(sys.sync(A, A, kObj), "cannot synchronize with itself");
}

TEST(StateSystem, SyncFromMissingReplicaSkips) {
  StateSystem sys(auto_cfg());
  auto out = sys.sync(B, A, kObj);
  EXPECT_EQ(out.action, SyncOutcome::Action::kSkipped);
}

TEST(StateSystem, TrafficAccumulatesInTotals) {
  StateSystem sys(auto_cfg());
  sys.create_object(A, kObj, "v1");
  sys.sync(B, A, kObj);
  sys.update(A, kObj, "v2");
  sys.sync(B, A, kObj);
  EXPECT_EQ(sys.totals().sessions, 2u);
  EXPECT_GT(sys.totals().bits, 0u);
  EXPECT_GT(sys.totals().elems_sent, 0u);
}

TEST(StateSystem, ThreeSiteConvergence) {
  for (auto kind : {vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
    StateSystem sys(auto_cfg(kind));
    sys.create_object(A, kObj, "base");
    sys.sync(B, A, kObj);
    sys.sync(C, A, kObj);
    sys.update(A, kObj, "a1");
    sys.update(B, kObj, "b1");
    sys.update(C, kObj, "c1");
    // Gossip until quiet.
    for (int round = 0; round < 4; ++round) {
      sys.sync(B, A, kObj);
      sys.sync(C, B, kObj);
      sys.sync(A, C, kObj);
    }
    EXPECT_TRUE(sys.replicas_consistent(kObj)) << to_string(kind);
    EXPECT_TRUE(sys.replica(A, kObj).data.entries.contains("b1"));
  }
}

// The Table 2 check where it ships (VectorSync::account): one 8-site,
// 400-step trace run lossless in a given kind and mode, with a flight recorder.
struct BoundRun {
  std::uint64_t violations{0};
  std::uint64_t counter{0};
  bool triggered{false};
  std::string reason;
};

BoundRun run_bound_check(vv::VectorKind kind, vv::TransferMode mode) {
  obs::FlightRecorder recorder;
  StateSystem::Config cfg;
  cfg.n_sites = 8;
  cfg.kind = kind;
  cfg.mode = mode;
  cfg.cost = CostModel{.n = 8, .m = 1 << 16};
  cfg.recorder = &recorder;
  StateSystem sys(cfg);
  wl::GeneratorConfig g;
  g.n_sites = 8;
  g.steps = 400;
  g.seed = 1;
  wl::run_state(sys, wl::generate(g));
  return {sys.totals().bound_violations, sys.metrics().counter("obs.bound_violations").value(),
          recorder.triggered(), recorder.reason()};
}

// Stop-and-wait ACKs are not in Table 2's bound, so a CRV stop-and-wait run
// exceeds it: every violation is counted, advances obs.bound_violations, and
// the first one freezes the flight recorder.
TEST(StateSystem, Table2ViolationIsCountedAndFreezesRecorder) {
  const BoundRun r = run_bound_check(vv::VectorKind::kCrv, vv::TransferMode::kStopAndWait);
  EXPECT_GT(r.violations, 0u);
  EXPECT_EQ(r.counter, r.violations);
  EXPECT_TRUE(r.triggered);
  EXPECT_EQ(r.reason, "table2_bound_violation");
}

// Control: the same trace in SRV kIdeal mode stays within the bound.
TEST(StateSystem, Table2BoundHoldsInIdealMode) {
  const BoundRun r = run_bound_check(vv::VectorKind::kSrv, vv::TransferMode::kIdeal);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.counter, 0u);
  EXPECT_FALSE(r.triggered);
}

}  // namespace
}  // namespace optrep::repl
