// Frame batching must be invisible to the protocols: with any frame budget,
// a session produces bit-identical reports and vector states to the unframed
// run — including the §3.1 pipelining overshoot, which requires HALT to
// cancel the not-yet-transmitted tail of an open frame.
//
// Pipelined grids use finite, non-round bandwidth/latency: with infinite
// bandwidth a speculative burst transmits instantaneously at enqueue time, so
// "not yet transmitting" is undecidable and framed speculation is undefined
// (DESIGN.md §5) — real pipelining always has finite bandwidth.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "vv/compare.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

struct VecPair {
  RotatingVector a;
  RotatingVector b;
};

// A shared history, then per-replica divergence: b always grows past a;
// `concurrent` lets a advance on its own sites too.
VecPair make_pair(Rng& rng, std::uint32_t n_sites, std::uint32_t shared,
                  std::uint32_t extra, bool concurrent) {
  VecPair p;
  for (std::uint32_t i = 0; i < shared; ++i) {
    const SiteId s{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))};
    p.a.record_update(s);
  }
  p.b = p.a;
  for (std::uint32_t i = 0; i < extra; ++i) {
    p.b.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))});
  }
  if (concurrent) {
    for (std::uint32_t i = 0; i < extra / 2 + 1; ++i) {
      p.a.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))});
    }
  }
  return p;
}

void expect_reports_identical(const SyncReport& unframed, const SyncReport& framed) {
  EXPECT_EQ(unframed.initial_relation, framed.initial_relation);
  EXPECT_EQ(unframed.fwd.model_bits, framed.fwd.model_bits);
  EXPECT_EQ(unframed.rev.model_bits, framed.rev.model_bits);
  EXPECT_EQ(unframed.fwd.wire_bytes, framed.fwd.wire_bytes);
  EXPECT_EQ(unframed.rev.wire_bytes, framed.rev.wire_bytes);
  EXPECT_EQ(unframed.fwd.messages, framed.fwd.messages);
  EXPECT_EQ(unframed.rev.messages, framed.rev.messages);
  EXPECT_EQ(unframed.elems_sent, framed.elems_sent);
  EXPECT_EQ(unframed.elems_applied, framed.elems_applied);
  EXPECT_EQ(unframed.elems_redundant, framed.elems_redundant);
  EXPECT_EQ(unframed.elems_straggler, framed.elems_straggler);
  EXPECT_EQ(unframed.elems_after_halt, framed.elems_after_halt);
  EXPECT_EQ(unframed.skip_msgs, framed.skip_msgs);
  EXPECT_EQ(unframed.segments_skipped, framed.segments_skipped);
  EXPECT_EQ(unframed.ack_msgs, framed.ack_msgs);
  // Simulated time is computed by the same arithmetic in the same order:
  // exact equality, not approximate.
  EXPECT_EQ(unframed.duration, framed.duration);
  EXPECT_EQ(unframed.receiver_done_at, framed.receiver_done_at);
}

SyncOptions make_opt(VectorKind kind, TransferMode mode, std::uint32_t n_sites,
                     std::uint32_t budget) {
  SyncOptions opt;
  opt.kind = kind;
  opt.mode = mode;
  opt.cost = CostModel{.n = n_sites, .m = 1 << 16};
  // Non-round figures so timing ties cannot mask ordering bugs.
  opt.net = {.latency_s = 0.0013, .bandwidth_bits_per_s = 997.0};
  opt.net.frame_budget = budget;
  return opt;
}

TEST(FrameSession, ReportsAndStatesBitIdenticalAcrossBudgets) {
  Rng rng(77);
  for (auto kind : {VectorKind::kBrv, VectorKind::kCrv, VectorKind::kSrv}) {
    for (auto mode :
         {TransferMode::kPipelined, TransferMode::kStopAndWait, TransferMode::kIdeal}) {
      for (std::uint32_t budget : {1u, 3u, 8u, 64u}) {
        for (int trial = 0; trial < 6; ++trial) {
          const bool concurrent = kind != VectorKind::kBrv && trial % 2 == 1;
          VecPair p = make_pair(rng, 8, 20, 15 + static_cast<std::uint32_t>(trial) * 9,
                                concurrent);
          const Ordering rel = compare_fast(p.a, p.b);
          if (rel == Ordering::kEqual || rel == Ordering::kAfter) continue;
          if (kind == VectorKind::kBrv && rel == Ordering::kConcurrent) continue;

          RotatingVector a0 = p.a, a1 = p.a;
          SyncOptions opt0 = make_opt(kind, mode, 8, 0);
          opt0.known_relation = rel;
          sim::EventLoop loop0;
          const SyncReport r0 = sync_rotating(loop0, a0, p.b, opt0);

          SyncOptions opt1 = make_opt(kind, mode, 8, budget);
          opt1.known_relation = rel;
          sim::EventLoop loop1;
          const SyncReport r1 = sync_rotating(loop1, a1, p.b, opt1);

          SCOPED_TRACE(testing::Message()
                       << "kind=" << static_cast<int>(kind) << " mode="
                       << static_cast<int>(mode) << " budget=" << budget
                       << " trial=" << trial);
          expect_reports_identical(r0, r1);
          EXPECT_TRUE(a0.identical_to(a1));
          // Framing only batches: fewer-or-equal frames and dispatches, and
          // the realistic framed bytes never exceed the unframed encoding.
          EXPECT_LE(r1.total_frames(), r0.total_frames());
          EXPECT_LE(r1.total_framed_bytes(), r0.fwd.wire_bytes + r0.rev.wire_bytes);
          EXPECT_LE(r1.loop_events, r0.loop_events);
        }
      }
    }
  }
}

TEST(FrameSession, PipelinedHaltStillOvershootsByBeta) {
  // A receiver that already covers most of b halts early; the pipelined
  // sender overshoots by up to β = bandwidth·rtt past the halt — the framed
  // run must reproduce the unframed overshoot exactly: HALT revokes only the
  // unsent frame tail, not elements already on the wire.
  Rng rng(123);
  RotatingVector a;
  for (int i = 0; i < 400; ++i) {
    a.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, 9))});
  }
  RotatingVector b = a;
  b.record_update(SiteId{3});  // a ≺ b by one element

  for (auto kind : {VectorKind::kBrv, VectorKind::kCrv, VectorKind::kSrv}) {
    RotatingVector a0 = a, a1 = a;
    SyncOptions opt0 = make_opt(kind, TransferMode::kPipelined, 10, 0);
    sim::EventLoop loop0;
    const SyncReport r0 = sync_rotating(loop0, a0, b, opt0);

    SyncOptions opt1 = make_opt(kind, TransferMode::kPipelined, 10, 16);
    sim::EventLoop loop1;
    const SyncReport r1 = sync_rotating(loop1, a1, b, opt1);

    SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(kind));
    expect_reports_identical(r0, r1);
    EXPECT_TRUE(a0.identical_to(a1));
    // The overshoot is real (halt raced in-flight elements) but bounded:
    // the sender did not stream the whole 400-element vector.
    EXPECT_GT(r1.elems_after_halt, 0u);
    EXPECT_LT(r1.elems_sent, 400u);
  }
}

TEST(FrameSession, BatchedDispatchExecutesFarFewerEvents) {
  // The tentpole claim at protocol level: a budget-16 pipelined session
  // executes at least 5× fewer event-loop dispatches than unframed.
  Rng rng(9);
  RotatingVector a;
  for (int i = 0; i < 30; ++i) {
    a.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, 7))});
  }
  RotatingVector b = a;
  for (int i = 0; i < 3000; ++i) {
    b.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, 7))});
  }
  RotatingVector a0 = a, a1 = a;
  SyncOptions opt0 = make_opt(VectorKind::kSrv, TransferMode::kPipelined, 8, 0);
  sim::EventLoop loop0;
  const SyncReport r0 = sync_rotating(loop0, a0, b, opt0);
  SyncOptions opt1 = make_opt(VectorKind::kSrv, TransferMode::kPipelined, 8, 16);
  sim::EventLoop loop1;
  const SyncReport r1 = sync_rotating(loop1, a1, b, opt1);
  expect_reports_identical(r0, r1);
  EXPECT_GE(r0.loop_events, 5 * r1.loop_events);
  EXPECT_LT(r1.total_framed_bytes(), r0.total_bytes());
}

}  // namespace
}  // namespace optrep::vv
