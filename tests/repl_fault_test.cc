// Fault injection through the replication systems: the state- and
// record-transfer layers must surface retries and failures from the session
// layer, keep a failed sync a complete no-op, and stay convergent once the
// network lets a sync through.
#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "repl/op_system.h"
#include "repl/record_system.h"
#include "repl/state_system.h"
#include "workload/trace.h"

namespace optrep::repl {
namespace {

const SiteId A{0}, B{1}, C{2};
const ObjectId kObj{0};

StateSystem::Config lossy_state_cfg(double drop, std::uint64_t seed) {
  StateSystem::Config cfg;
  cfg.n_sites = 4;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.policy = ResolutionPolicy::kAutomatic;
  cfg.cost = CostModel{.n = 8, .m = 1024};
  cfg.net.latency_s = 0.001;
  cfg.net.faults.drop = drop;
  cfg.net.faults.seed = seed;
  return cfg;
}

TEST(ReplFaults, StateSyncRetriesAndConverges) {
  StateSystem sys(lossy_state_cfg(0.2, 5));
  sys.create_object(A, kObj, "base");
  for (int i = 0; i < 6; ++i) sys.update(A, kObj, "v" + std::to_string(i));
  const auto out = sys.sync(B, A, kObj);
  ASSERT_EQ(out.action, SyncOutcome::Action::kPulled);
  EXPECT_TRUE(out.report.converged);
  EXPECT_TRUE(sys.replicas_consistent(kObj));
  EXPECT_GT(sys.totals().faults_injected, 0u);
}

TEST(ReplFaults, StateSyncFailureIsACompleteNoOp) {
  StateSystem sys(lossy_state_cfg(1.0, 1));  // nothing ever arrives
  sys.create_object(A, kObj, "base");
  sys.update(A, kObj, "v1");
  const auto out = sys.sync(B, A, kObj);  // creates B's replica, empty
  EXPECT_EQ(out.action, SyncOutcome::Action::kFailed);
  EXPECT_FALSE(out.report.converged);
  EXPECT_EQ(out.report.retries, vv::RetryPolicy{}.max_retries);
  EXPECT_EQ(sys.totals().sync_failures, 1u);
  // The receiver's metadata never claims content that was not transferred.
  EXPECT_TRUE(sys.replica(B, kObj).vector.to_version_vector() == vv::VersionVector{});
  EXPECT_TRUE(sys.replica(B, kObj).data.entries.empty());

  // The record store, through the same sync step: B holds its own record, so
  // a merge would run the semantic detector — a failed sync must not.
  RecordSystem::Config rcfg;
  rcfg.n_sites = 4;
  rcfg.kind = vv::VectorKind::kSrv;
  rcfg.cost = CostModel{.n = 8, .m = 1024};
  rcfg.net.latency_s = 0.001;
  rcfg.net.faults.drop = 1.0;
  rcfg.net.faults.seed = 1;
  RecordSystem records(rcfg);
  records.create_object(A, kObj, "ka", "vA");
  records.create_object(B, kObj, "kb", "vB");
  const RecordReplica before = records.replica(B, kObj);
  const auto r = records.sync(B, A, kObj);
  EXPECT_EQ(r.relation, vv::Ordering::kConcurrent);
  EXPECT_FALSE(r.report.converged);
  EXPECT_FALSE(r.syntactic_conflict);
  EXPECT_EQ(records.replica(B, kObj).records, before.records);
  EXPECT_TRUE(records.replica(B, kObj).vector.identical_to(before.vector));
  EXPECT_EQ(records.totals().sync_failures, 1u);
  EXPECT_EQ(records.totals().retries, vv::RetryPolicy{}.max_retries);
}

TEST(ReplFaults, FaultTotalsAccumulateAcrossSessions) {
  StateSystem sys(lossy_state_cfg(0.25, 77));
  sys.create_object(A, kObj, "base");
  for (int round = 0; round < 5; ++round) {
    sys.update(A, kObj, "a" + std::to_string(round));
    sys.sync(B, A, kObj);
    sys.sync(C, B, kObj);
  }
  const auto& t = sys.totals();
  EXPECT_GT(t.faults_injected, 0u);
  EXPECT_GT(t.retries + t.sync_failures, 0u);
  EXPECT_GT(t.recovery_bits, 0u);
}

// A failed sync leaves the receiver exactly as it was (vv::sync_with_recovery
// restores it), so lossy runs keep both oracle cross-checks on: every COMPARE
// verdict and every merged vector is checked against ground truth.
TEST(ReplFaults, LossyRunKeepsOracleChecks) {
  StateSystem::Config cfg;
  cfg.n_sites = 8;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = 8, .m = 1 << 16};
  cfg.net.faults.drop = 0.05;
  cfg.net.faults.duplicate = 0.02;
  cfg.net.faults.seed = 9;
  StateSystem sys(cfg);
  EXPECT_TRUE(sys.config().check_oracle);
  wl::GeneratorConfig g;
  g.n_sites = 8;
  g.steps = 400;
  g.seed = 9;
  const wl::RunStats stats = wl::run_state(sys, wl::generate(g));
  EXPECT_TRUE(stats.eventually_consistent);
  EXPECT_GT(sys.totals().faults_injected, 0u);
  EXPECT_GT(sys.totals().retries, 0u);
}

TEST(ReplFaults, RecordSyncUnderFaultsMergesOrRollsBack) {
  RecordSystem::Config cfg;
  cfg.n_sites = 4;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = 8, .m = 1024};
  cfg.net.latency_s = 0.001;
  cfg.net.faults.drop = 0.25;
  cfg.net.faults.seed = 3;
  RecordSystem sys(cfg);
  sys.create_object(A, kObj, "k0", "v0");
  for (int i = 0; i < 5; ++i) sys.put(A, kObj, "k" + std::to_string(i), "vA");
  sys.sync(B, A, kObj);
  sys.put(B, kObj, "kb", "vB");
  sys.put(A, kObj, "ka", "vA2");
  for (int round = 0; round < 8; ++round) {
    const auto r1 = sys.sync(B, A, kObj);
    const auto r2 = sys.sync(A, B, kObj);
    if (r1.report.converged && r2.report.converged) break;
  }
  EXPECT_TRUE(sys.replicas_consistent(kObj));
  EXPECT_GT(sys.totals().faults_injected, 0u);
}

TEST(ReplFaultsDeath, OpTransferRejectsFaultInjection) {
  OpSystem::Config cfg;
  cfg.n_sites = 3;
  cfg.net.faults.drop = 0.1;
  EXPECT_DEATH(OpSystem{cfg}, "fault injection is not supported");
}

}  // namespace
}  // namespace optrep::repl
