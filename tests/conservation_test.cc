// Conservation laws: accounting identities that must hold for every sync
// session, across all vector kinds, transfer modes and network shapes.
// These catch bookkeeping bugs (double counting, lost messages) that
// functional tests can miss.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "vv/compare.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

struct NetCase {
  TransferMode mode;
  sim::NetConfig net;
  const char* name;
};

class Conservation : public ::testing::TestWithParam<NetCase> {};

TEST_P(Conservation, ElementAccountingBalances) {
  const NetCase& nc = GetParam();
  Rng rng(808);
  for (int trial = 0; trial < 40; ++trial) {
    // Evolve a small fleet, then audit one sync.
    constexpr std::uint32_t kSites = 6;
    std::vector<RotatingVector> vec(kSites);
    for (int step = 0; step < 60; ++step) {
      const auto i = static_cast<std::uint32_t>(rng.below(kSites));
      if (rng.chance(0.55)) {
        vec[i].record_update(SiteId{i});
        continue;
      }
      auto j = static_cast<std::uint32_t>(rng.below(kSites));
      if (j == i) j = (j + 1) % kSites;
      const Ordering rel = compare_fast(vec[i], vec[j]);
      if (rel == Ordering::kEqual || rel == Ordering::kAfter) continue;

      SyncOptions opt;
      opt.kind = VectorKind::kSrv;
      opt.mode = nc.mode;
      opt.net = nc.net;
      opt.cost = CostModel{.n = kSites, .m = 1 << 16};
      opt.known_relation = rel;
      sim::EventLoop loop;
      const SyncReport rep = sync_rotating(loop, vec[i], vec[j], opt);
      if (rel == Ordering::kConcurrent) vec[i].record_update(SiteId{i});

      // (1) Every transmitted element is accounted for exactly once:
      //     applied + redundant + stragglers + after-halt + the halt
      //     trigger (0 or 1).
      const std::uint64_t accounted = rep.elems_applied + rep.elems_redundant +
                                      rep.elems_straggler + rep.elems_after_halt;
      ASSERT_GE(rep.elems_sent, accounted);
      ASSERT_LE(rep.elems_sent, accounted + 1);

      // (2) Skips: every honored skip was requested; requests may exceed
      //     honors only via pipelining races.
      ASSERT_LE(rep.segments_skipped, rep.skip_msgs);
      if (nc.mode != TransferMode::kPipelined) {
        ASSERT_EQ(rep.segments_skipped, rep.skip_msgs);
      }

      // (3) Forward traffic decomposes into elements + control markers.
      const CostModel cm = opt.cost;
      const std::uint64_t elem_bits = rep.elems_sent * cm.elem_bits(2);
      ASSERT_GE(rep.bits_fwd, elem_bits);
      ASSERT_LE(rep.bits_fwd, elem_bits + 2 * (rep.segments_skipped + 1));

      // (4) Messages: forward = elements + SKIPPED markers + at most one
      //     HALT; reverse = skips + acks + at most one HALT.
      ASSERT_LE(rep.msgs_fwd, rep.elems_sent + rep.segments_skipped + 1);
      ASSERT_LE(rep.msgs_rev, rep.skip_msgs + rep.ack_msgs + 1);

      // (5) Time: the receiver finishes no later than session quiescence.
      ASSERT_LE(rep.receiver_done_at, rep.duration + 1e-12);
    }
  }
}

TEST_P(Conservation, EqualSyncIsMinimal) {
  const NetCase& nc = GetParam();
  RotatingVector a;
  a.record_update(SiteId{0});
  a.record_update(SiteId{1});
  RotatingVector b = a;
  SyncOptions opt;
  opt.kind = VectorKind::kSrv;
  opt.mode = nc.mode;
  opt.net = nc.net;
  opt.cost = CostModel{.n = 4, .m = 16};
  opt.known_relation = Ordering::kEqual;
  sim::EventLoop loop;
  const auto rep = sync_rotating(loop, a, b, opt);
  EXPECT_EQ(rep.elems_applied, 0u);
  if (nc.mode == TransferMode::kPipelined) {
    // The front element triggers the halt; anything extra is the β overshoot
    // of speculative streaming (§3.1) — here at most the one other element.
    EXPECT_GE(rep.elems_sent, 1u);
    EXPECT_LE(rep.elems_sent, 2u);
    EXPECT_EQ(rep.elems_after_halt, rep.elems_sent - 1);
  } else {
    EXPECT_EQ(rep.elems_sent, 1u);  // flow control stops the sender exactly
  }
}

// A static table, not an inline ::testing::Values(...): gtest prints each
// NetCase's raw bytes into the test name, and only static storage zeroes the
// padding those bytes include.
constexpr NetCase kModes[] = {
    {TransferMode::kIdeal, {}, "ideal"},
    {TransferMode::kStopAndWait, {.latency_s = 0.01}, "saw"},
    {TransferMode::kPipelined, {.latency_s = 0.0}, "pipe_zero"},
    {TransferMode::kPipelined, {.latency_s = 0.01, .bandwidth_bits_per_s = 1e5}, "pipe_slow"},
    {TransferMode::kPipelined, {.latency_s = 0.05, .bandwidth_bits_per_s = 1e9}, "pipe_fat"},
};

INSTANTIATE_TEST_SUITE_P(Modes, Conservation, ::testing::ValuesIn(kModes),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace optrep::vv
