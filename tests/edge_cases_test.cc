// Edge cases and misuse guards across the library: death tests for contract
// violations and behaviour at extreme scales.
#include <gtest/gtest.h>

#include "graph/sync_graph.h"
#include "tests/test_util.h"
#include "vv/codec.h"
#include "vv/session.h"
#include "workload/trace.h"

namespace optrep {
namespace {

using vv::RotatingVector;
using vv::VectorKind;

TEST(EdgeCases, EventLoopRejectsSchedulingIntoThePast) {
  sim::EventLoop loop;
  loop.schedule(5.0, [] {});
  loop.run();
  EXPECT_DEATH(loop.schedule(1.0, [] {}), "cannot schedule into the past");
}

TEST(EdgeCases, LinkWithoutReceiverDies) {
  sim::EventLoop loop;
  sim::FrameLink<int> link(&loop, {});
  EXPECT_DEATH(link.send(1, 8, 1), "link has no receiver");
}

TEST(EdgeCases, BitReaderPastEndDies) {
  vv::BitWriter w;
  w.put(0b1, 1);
  vv::BitReader r(w.bytes());
  r.get(1);
  // The buffer has 7 padding bits in its single byte; reading beyond dies.
  EXPECT_DEATH(r.get(16), "read past end of buffer");
}

TEST(EdgeCases, BitWriterRejectsOverwideValues) {
  vv::BitWriter w;
  EXPECT_DEATH(w.put(4, 2), "value does not fit field");
}

TEST(EdgeCases, RotateAfterUnknownPrevDies) {
  RotatingVector v;
  v.record_update(SiteId{0});
  EXPECT_DEATH(v.rotate_after(SiteId{9}, SiteId{0}), "prev element not present");
}

TEST(EdgeCases, GraphMisuseDies) {
  graph::CausalGraph g;
  EXPECT_DEATH(g.append(UpdateId{SiteId{0}, 1}), "append\\(\\) on an empty graph");
  g.create(UpdateId{SiteId{0}, 1});
  EXPECT_DEATH(g.create(UpdateId{SiteId{0}, 2}), "create\\(\\) on a non-empty graph");
  EXPECT_DEATH(g.append(UpdateId{SiteId{0}, 1}), "duplicate operation id");
  EXPECT_DEATH(g.merge(UpdateId{SiteId{0}, 2}, UpdateId{SiteId{9}, 9}),
               "merge head must be present");
}

TEST(EdgeCases, SingleSiteSystemDegenerates) {
  // n = 1: every vector has one element; COMPARE and SYNC stay trivial.
  RotatingVector a, b;
  b.record_update(SiteId{0});
  b.record_update(SiteId{0});
  sim::EventLoop loop;
  auto rep = sync_rotating(loop, a, b, test::ideal(VectorKind::kSrv, 2));
  EXPECT_EQ(a.value(SiteId{0}), 2u);
  EXPECT_EQ(rep.elems_applied, 1u);
}

TEST(EdgeCases, LargeValuesSurviveSyncAndSnapshot) {
  RotatingVector b;
  b.record_update(SiteId{0});
  b.set_element(SiteId{0}, 0xFFFFFFFFFFFFULL, false, false);  // 48-bit count
  RotatingVector a;
  sim::EventLoop loop;
  auto opt = test::ideal(VectorKind::kSrv, 4, /*m=*/std::uint64_t{1} << 48);
  sync_rotating(loop, a, b, opt);
  EXPECT_EQ(a.value(SiteId{0}), 0xFFFFFFFFFFFFULL);
  EXPECT_TRUE(vv::decode_vector(vv::encode_vector(a)).identical_to(a));
}

TEST(EdgeCases, TenThousandSiteVectorRemainsFast) {
  // O(1) update/rotate at scale: building and syncing a 10⁴-element vector
  // must complete comfortably within the test budget.
  constexpr std::uint32_t kN = 10000;
  RotatingVector b;
  for (std::uint32_t i = 0; i < kN; ++i) b.record_update(SiteId{i});
  RotatingVector a = b;
  b.record_update(SiteId{42});
  sim::EventLoop loop;
  auto rep = sync_rotating(loop, a, b, test::ideal(VectorKind::kSrv, kN));
  EXPECT_EQ(rep.elems_applied, 1u);
  EXPECT_EQ(rep.elems_sent, 2u);  // the fresh element + the halt trigger
  EXPECT_EQ(a.value(SiteId{42}), 2u);
}

TEST(EdgeCases, DeepGraphSyncDoesNotOverflow) {
  // 50k-node chain: iterative DFS (no recursion) must handle it.
  graph::CausalGraph b;
  b.create(UpdateId{SiteId{0}, 1});
  for (std::uint64_t i = 2; i <= 50000; ++i) b.append(UpdateId{SiteId{0}, i});
  graph::CausalGraph a;
  graph::GraphSyncOptions opt;
  opt.mode = vv::TransferMode::kIdeal;
  opt.cost = CostModel{.n = 4, .m = 1 << 20};
  sim::EventLoop loop;
  auto rep = sync_graph(loop, a, b, opt);
  EXPECT_EQ(rep.nodes_new, 50000u);
  a.set_sink(b.sink());
  EXPECT_TRUE(a.validate_closed());
}

TEST(EdgeCases, ZeroStepTraceIsHarmless) {
  wl::GeneratorConfig g;
  g.n_sites = 2;
  g.n_objects = 1;
  g.steps = 0;
  const wl::Trace t = wl::generate(g);
  EXPECT_EQ(t.events.size(), 1u);  // just the creation
  repl::StateSystem::Config cfg;
  cfg.n_sites = 2;
  cfg.cost = CostModel{.n = 2, .m = 2};
  repl::StateSystem sys(cfg);
  const auto stats = wl::run_state(sys, t);
  EXPECT_TRUE(stats.eventually_consistent);
}

}  // namespace
}  // namespace optrep
