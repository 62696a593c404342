#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "vv/compare.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

using test::ideal;
using test::run_sync;

const SiteId A{0}, B{1}, C{2}, D{3};

TEST(SyncBasic, OverwritesWhenReceiverPrecedes) {
  RotatingVector a;
  a.record_update(A);
  RotatingVector b = a;
  b.record_update(B);
  b.record_update(C);

  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv));
  // Theorem 3.1: a ≺ b ⇒ result equals b (values and, here, full order).
  EXPECT_EQ(rep.initial_relation, Ordering::kBefore);
  EXPECT_TRUE(a.identical_to(b));
}

TEST(SyncBasic, NoOpWhenReceiverDominates) {
  RotatingVector b;
  b.record_update(A);
  RotatingVector a = b;
  a.record_update(B);

  const RotatingVector before = a;
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv));
  EXPECT_EQ(rep.initial_relation, Ordering::kAfter);
  EXPECT_TRUE(a.identical_to(before));
  // The sender's first (and only transmitted) element already halts us.
  EXPECT_EQ(rep.elems_applied, 0u);
  EXPECT_EQ(rep.elems_sent, 1u);
}

TEST(SyncBasic, NoOpWhenEqual) {
  RotatingVector a;
  a.record_update(A);
  RotatingVector b = a;
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv));
  EXPECT_EQ(rep.initial_relation, Ordering::kEqual);
  EXPECT_EQ(rep.elems_applied, 0u);
}

TEST(SyncBasic, EmptySenderHaltsImmediately) {
  RotatingVector a, b;
  a.record_update(A);
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv));
  EXPECT_EQ(rep.elems_sent, 0u);
  EXPECT_EQ(a.value(A), 1u);
}

TEST(SyncBasic, EmptyReceiverCopiesEverything) {
  RotatingVector a, b;
  b.record_update(A);
  b.record_update(B);
  b.record_update(A);
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv));
  EXPECT_TRUE(a.identical_to(b));
  EXPECT_EQ(rep.elems_applied, 2u);
}

TEST(SyncBasic, TransmitsOnlyDeltaPlusHaltElement) {
  // Build a long shared history, then a short fresh suffix on b: SYNCB must
  // transmit |Δ| elements plus the single element it halts on — independent
  // of the vector length (§3.3: O(|Δ|) communication).
  RotatingVector a;
  for (std::uint32_t i = 0; i < 50; ++i) a.record_update(SiteId{i});
  RotatingVector b = a;
  b.record_update(SiteId{50});
  b.record_update(SiteId{51});
  b.record_update(SiteId{52});

  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, ideal(VectorKind::kBrv, /*n=*/64));
  EXPECT_EQ(rep.elems_applied, 3u);  // |Δ| = 3
  EXPECT_EQ(rep.elems_sent, 4u);     // Δ plus the halting element
  EXPECT_EQ(rep.elems_redundant, 0u);
  EXPECT_TRUE(a.identical_to(b));
}

TEST(SyncBasic, CommunicationWithinTable2Bound) {
  CostModel cm{.n = 64, .m = 1024};
  RotatingVector a;
  RotatingVector b;
  for (std::uint32_t i = 0; i < 64; ++i) b.record_update(SiteId{i});

  auto opt = ideal(VectorKind::kBrv, 64, 1024);
  opt.known_relation = Ordering::kBefore;  // isolate sync traffic
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, opt);
  // Worst case (everything new): n elements + HALT ≤ n·log(2mn)+2.
  EXPECT_LE(rep.fwd.model_bits, cm.brv_upper_bound_bits());
  EXPECT_EQ(rep.fwd.model_bits, 64 * cm.elem_bits(0) + cm.halt_bits());
}

TEST(SyncBasic, Section32CounterexampleBreaksAfterConcurrentUse) {
  // §3.2: θ1 = <A:2, B:1>, θ2 = <B:2, A:1>. Misusing SYNCB to "reconcile"
  // θ2 with θ1 produces θ3 = <A:2, B:2> whose order hides B from θ1 in a
  // later SYNCB — exactly the failure CRV exists to fix.
  RotatingVector theta1, theta2;
  theta1.record_update(B);
  theta1.record_update(A);
  theta1.record_update(A);  // <A:2, B:1>
  theta2.record_update(A);
  theta2.record_update(B);
  theta2.record_update(B);  // <B:2, A:1>
  ASSERT_EQ(theta1.to_string(), "<A:2, B:1>");
  ASSERT_EQ(theta2.to_string(), "<B:2, A:1>");
  ASSERT_EQ(compare_fast(theta1, theta2), Ordering::kConcurrent);

  // θ3 := SYNCB_θ1(θ2): single call still produces the correct max values…
  RotatingVector theta3 = theta2;
  sim::EventLoop loop;
  sync_basic(loop, theta3, theta1, ideal(VectorKind::kBrv));
  EXPECT_EQ(theta3.to_string(), "<A:2, B:2>");

  // …but the subsequent SYNCB_θ3(θ1) halts on A, leaving θ1[B] stale.
  sim::EventLoop loop2;
  sync_basic(loop2, theta1, theta3, ideal(VectorKind::kBrv));
  EXPECT_EQ(theta1.value(B), 1u) << "documented BRV failure mode should reproduce";
}

TEST(SyncBasic, PipelinedAndIdealProduceIdenticalVectors) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    RotatingVector base;
    for (int i = 0; i < 20; ++i)
      base.record_update(SiteId{static_cast<std::uint32_t>(rng.below(8))});
    RotatingVector b = base;
    for (int i = 0; i < 10; ++i)
      b.record_update(SiteId{static_cast<std::uint32_t>(rng.below(8))});

    RotatingVector a1 = base, a2 = base;
    auto opt_ideal = ideal(VectorKind::kBrv, 8);
    auto opt_pipe = opt_ideal;
    opt_pipe.mode = TransferMode::kPipelined;
    opt_pipe.net = {.latency_s = 0.01, .bandwidth_bits_per_s = 1e4};
    sim::EventLoop l1, l2;
    sync_basic(l1, a1, b, opt_ideal);
    sync_basic(l2, a2, b, opt_pipe);
    EXPECT_TRUE(a1.identical_to(a2)) << a1.to_string() << " vs " << a2.to_string();
    EXPECT_TRUE(a1.identical_to(b));
  }
}

TEST(SyncBasic, PipeliningSavesRoundTrips) {
  // k elements: stop-and-wait pays ~k·rtt, pipelining ~1·rtt + k·transmit.
  RotatingVector a;
  RotatingVector b;
  for (std::uint32_t i = 0; i < 20; ++i) b.record_update(SiteId{i});

  auto pipe = ideal(VectorKind::kBrv, 32);
  pipe.mode = TransferMode::kPipelined;
  pipe.net = {.latency_s = 0.05, .bandwidth_bits_per_s = 1e6};
  auto saw = pipe;
  saw.mode = TransferMode::kStopAndWait;

  RotatingVector a1 = a, a2 = a;
  sim::EventLoop l1, l2;
  auto rp = sync_basic(l1, a1, b, pipe);
  auto rs = sync_basic(l2, a2, b, saw);
  EXPECT_TRUE(a1.identical_to(a2));
  // §3.1: pipelining reduces running time by (k−1)·rtt.
  const double rtt = 0.1;
  EXPECT_GT(rs.duration - rp.duration, (20 - 2) * rtt);
}

TEST(SyncBasic, ReportTrafficSplitsByDirection) {
  RotatingVector a, b;
  b.record_update(A);
  b.record_update(B);
  auto opt = ideal(VectorKind::kBrv);
  opt.known_relation = Ordering::kBefore;
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, opt);
  CostModel cm = opt.cost;
  EXPECT_EQ(rep.fwd.model_bits, 2 * cm.elem_bits(0) + cm.halt_bits());
  EXPECT_EQ(rep.rev.model_bits, 0u);  // ideal mode: acks are free
  EXPECT_EQ(rep.ack_msgs, 2u);
}

TEST(SyncBasic, ChargesCompareWhenRelationUnknown) {
  RotatingVector a, b;
  b.record_update(A);
  auto opt = ideal(VectorKind::kBrv);
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, opt);
  const auto probe = opt.cost.compare_probe_bits();
  EXPECT_EQ(rep.fwd.model_bits, probe + opt.cost.elem_bits(0) + opt.cost.halt_bits());
  EXPECT_EQ(rep.rev.model_bits, probe);
}

TEST(SyncBasic, PipelinedOvershootBoundedByBandwidthDelayProduct) {
  // β = bandwidth · rtt (§3.1): elements transmitted after the receiver's
  // HALT was emitted are bounded by the bandwidth-delay product.
  RotatingVector a;
  a.record_update(D);  // receiver dominates: halts on the first element
  RotatingVector b;    // sender: long vector, all stale
  for (std::uint32_t i = 0; i < 100; ++i) b.record_update(SiteId{i});
  a = b;  // receiver knows everything
  a.record_update(D);

  auto opt = ideal(VectorKind::kBrv, 128);
  opt.mode = TransferMode::kPipelined;
  opt.net = {.latency_s = 0.01, .bandwidth_bits_per_s = 20000};
  opt.known_relation = Ordering::kAfter;
  sim::EventLoop loop;
  auto rep = sync_basic(loop, a, b, opt);

  const CostModel cm = opt.cost;
  const double beta_bits = opt.net.bandwidth_bits_per_s * opt.net.rtt();
  const double max_excess_elems = beta_bits / cm.elem_bits(0) + 2;
  EXPECT_LE(rep.elems_sent, 1 + max_excess_elems);
  EXPECT_GT(rep.elems_sent, 1u);  // but pipelining did overshoot
}

}  // namespace
}  // namespace optrep::vv
