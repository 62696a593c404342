#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "graph/causal_graph.h"
#include "graph/dot.h"
#include "tests/alloc_counter.h"

namespace optrep::graph {
namespace {

const SiteId A{0}, B{1}, C{2}, E{4}, F{5}, G{6};

UpdateId op(SiteId s, std::uint64_t seq) { return UpdateId{s, seq}; }

// Operation history of Figure 1 read as a causal graph: node k is written
// op(k) here; nodes 1..6 are plain operations, 7 merges 2 and 6.
struct Fig3 {
  // op ids keyed by figure node number.
  UpdateId n1 = op(A, 1), n2 = op(B, 1), n4 = op(E, 1), n5 = op(F, 1), n6 = op(G, 1),
           n7 = op(A, 2);

  CausalGraph site_a;  // nodes 1, 2, 4–7
  CausalGraph site_c;  // nodes 1, 4–6

  Fig3() {
    site_a.create(n1);
    site_a.append(n2);
    site_a.insert_raw(Node{n4, n1});
    site_a.insert_raw(Node{n5, n4});
    site_a.insert_raw(Node{n6, n5});
    site_a.merge(n7, n6);  // lp = old sink (node 2), rp = node 6

    site_c.create(n1);
    site_c.append(n4);
    site_c.append(n5);
    site_c.append(n6);
  }
};

TEST(CausalGraph, CreateAppendMerge) {
  CausalGraph g;
  EXPECT_TRUE(g.empty());
  g.create(op(A, 1));
  EXPECT_EQ(g.source(), op(A, 1));
  EXPECT_EQ(g.sink(), op(A, 1));
  g.append(op(A, 2));
  g.append(op(B, 1));
  EXPECT_EQ(g.sink(), op(B, 1));
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.arc_count(), 2u);
  EXPECT_TRUE(g.validate_closed());
}

TEST(CausalGraph, MergeCreatesDoubleParentNode) {
  Fig3 f;
  const Node* seven = f.site_a.find(f.n7);
  ASSERT_NE(seven, nullptr);
  EXPECT_TRUE(seven->is_merge());
  EXPECT_EQ(seven->lp, f.n2);
  EXPECT_EQ(seven->rp, f.n6);
  EXPECT_EQ(f.site_a.node_count(), 6u);
  EXPECT_EQ(f.site_a.arc_count(), 6u);
  EXPECT_TRUE(f.site_a.validate_closed());
}

TEST(CausalGraph, CompareBySinkContainment) {
  Fig3 f;
  // C's sink (node 6) is in A's graph, A's sink (node 7) is not in C's.
  EXPECT_EQ(f.site_c.compare(f.site_a), vv::Ordering::kBefore);
  EXPECT_EQ(f.site_a.compare(f.site_c), vv::Ordering::kAfter);
  EXPECT_EQ(f.site_a.compare(f.site_a), vv::Ordering::kEqual);
}

TEST(CausalGraph, ConcurrentSinks) {
  Fig3 f;
  CausalGraph d;  // a third site that only saw node 1 and updated
  d.create(f.n1);
  d.append(op(C, 1));
  EXPECT_EQ(d.compare(f.site_a), vv::Ordering::kConcurrent);
  EXPECT_EQ(f.site_a.compare(d), vv::Ordering::kConcurrent);
}

TEST(CausalGraph, EmptyGraphPrecedesAll) {
  CausalGraph a, b;
  EXPECT_EQ(a.compare(b), vv::Ordering::kEqual);
  b.create(op(A, 1));
  EXPECT_EQ(a.compare(b), vv::Ordering::kBefore);
  EXPECT_EQ(b.compare(a), vv::Ordering::kAfter);
}

TEST(CausalGraph, IsAncestor) {
  Fig3 f;
  EXPECT_TRUE(f.site_a.is_ancestor(f.n1, f.n7));
  EXPECT_TRUE(f.site_a.is_ancestor(f.n6, f.n7));
  EXPECT_TRUE(f.site_a.is_ancestor(f.n2, f.n7));
  EXPECT_FALSE(f.site_a.is_ancestor(f.n7, f.n2));
  EXPECT_FALSE(f.site_a.is_ancestor(f.n2, f.n6));
}

TEST(CausalGraph, ValidateClosedDetectsDanglingParent) {
  CausalGraph g;
  g.create(op(A, 1));
  g.insert_raw(Node{op(B, 2), op(B, 1)});  // parent B:1 missing
  EXPECT_FALSE(g.validate_closed());
}

TEST(CausalGraph, ValidateClosedDetectsNonDominatingSink) {
  CausalGraph g;
  g.create(op(A, 1));
  g.append(op(A, 2));
  // A stray branch not reachable from the sink.
  g.insert_raw(Node{op(B, 1), op(A, 1)});
  EXPECT_FALSE(g.validate_closed());
}

TEST(CausalGraph, InsertRawIsIdempotent) {
  CausalGraph g;
  g.create(op(A, 1));
  g.insert_raw(Node{op(A, 1)});
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(CausalGraph, OpBytesAccumulate) {
  CausalGraph g;
  g.create(op(A, 1), 100);
  g.append(op(A, 2), 50);
  EXPECT_EQ(g.total_op_bytes(), 150u);
}

TEST(CausalGraph, DotExportContainsNodesAndMergeShading) {
  Fig3 f;
  const std::string dot = to_dot(f.site_a, "fig1");
  EXPECT_NE(dot.find("digraph fig1"), std::string::npos);
  EXPECT_NE(dot.find("\"A:2\" [style=filled, fillcolor=gray]"), std::string::npos);
  EXPECT_NE(dot.find("\"G:1\" -> \"A:2\""), std::string::npos);
  EXPECT_NE(dot.find("\"A:1\" -> \"B:1\""), std::string::npos);
}

// ---- storage: dense nodes plus a flat id index ------------------------------

// Random insert_raw streams, exact duplicates included, replayed against an
// ordered-map oracle. The index starts at 8 cells and doubles at load 0.5, so
// 3000 distinct nodes take it through nine doublings; every lookup is checked
// at each doubling boundary and at the end.
TEST(CausalGraphStorage, RandomInsertRawMatchesMapOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    CausalGraph g;
    std::map<UpdateId, Node> oracle;
    std::vector<UpdateId> order;  // distinct ids in insertion order
    std::size_t arcs = 0;
    std::uint64_t op_bytes = 0;
    const auto check_lookups = [&] {
      for (const auto& [id, n] : oracle) {
        ASSERT_TRUE(g.contains(id));
        const Node* found = g.find(id);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, n);
      }
      for (int k = 0; k < 200; ++k) {
        const UpdateId probe{SiteId{static_cast<std::uint32_t>(rng.below(64))},
                             1 + rng.below(128)};
        EXPECT_EQ(g.contains(probe), oracle.contains(probe));
        EXPECT_EQ(g.find(probe) != nullptr, oracle.contains(probe));
      }
    };
    while (order.size() < 3000) {
      if (!order.empty() && rng.chance(0.2)) {
        const UpdateId dup = order[rng.below(order.size())];
        g.insert_raw(oracle.at(dup));  // identical contents: a no-op
      } else {
        Node n;
        n.id = UpdateId{SiteId{static_cast<std::uint32_t>(rng.below(64))},
                        1 + rng.below(128)};
        if (oracle.contains(n.id)) continue;
        if (!order.empty() && rng.chance(0.9)) n.lp = order[rng.below(order.size())];
        if (!order.empty() && rng.chance(0.3)) n.rp = order[rng.below(order.size())];
        n.op_bytes = static_cast<std::uint32_t>(rng.below(100));
        g.insert_raw(n);
        oracle.emplace(n.id, n);
        order.push_back(n.id);
        arcs += (n.lp != kNoParent) + (n.rp != kNoParent);
        op_bytes += n.op_bytes;
      }
      ASSERT_EQ(g.node_count(), oracle.size());
      ASSERT_EQ(g.arc_count(), arcs);
      ASSERT_EQ(g.total_op_bytes(), op_bytes);
      const std::size_t n = order.size();
      if ((n & (n - 1)) == 0 || ((n - 1) & (n - 2)) == 0) check_lookups();
    }
    check_lookups();
    const std::vector<Node>& all = g.all_nodes();
    ASSERT_EQ(all.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(all[i].id, order[i]) << i;
  }
}

TEST(CausalGraphStorage, EqualityIgnoresInsertionOrder) {
  Fig3 f;
  std::vector<Node> nodes = f.site_a.all_nodes();
  std::reverse(nodes.begin(), nodes.end());
  CausalGraph reversed;
  for (const Node& n : nodes) reversed.insert_raw(n);
  EXPECT_EQ(reversed.all_nodes().front().id, f.n7);  // insertion order kept
  EXPECT_EQ(f.site_a.all_nodes().front().id, f.n1);
  EXPECT_TRUE(reversed == f.site_a);
  EXPECT_TRUE(f.site_a == reversed);

  // One node fewer, or one node with different contents, is a different graph.
  CausalGraph fewer;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) fewer.insert_raw(nodes[i]);
  EXPECT_FALSE(fewer == f.site_a);
  EXPECT_FALSE(f.site_a == fewer);
  CausalGraph changed;
  for (Node n : nodes) {
    if (n.id == f.n5) n.op_bytes = 7;
    changed.insert_raw(n);
  }
  EXPECT_FALSE(changed == f.site_a);
}

TEST(CausalGraphStorage, ConflictingDuplicateDies) {
  CausalGraph g;
  g.create(op(A, 1));
  g.append(op(A, 2));
  EXPECT_DEATH(g.insert_raw(Node{op(A, 2), op(B, 1)}), "conflicting node contents");
  EXPECT_DEATH(g.insert_raw(Node{op(A, 2), op(A, 1), kNoParent, 9}),
               "conflicting node contents");
}

// A one-node graph owns one node and one small index (what a gossip world
// pays per site at construction); after that the nodes grow 1.5x and the
// index doubles, so inserting N nodes costs O(log N) allocations.
TEST(CausalGraphStorage, InsertingNodesCostsLogarithmicAllocations) {
  CausalGraph g;
  std::uint64_t before = g_alloc_count;
  g.create(op(A, 1));
  EXPECT_EQ(g_alloc_count - before, 2u);

  constexpr std::uint64_t kNodes = 1u << 14;
  before = g_alloc_count;
  for (std::uint64_t seq = 2; seq <= kNodes; ++seq) g.append(op(A, seq));
  const std::uint64_t allocs = g_alloc_count - before;
  EXPECT_EQ(g.node_count(), kNodes);
  // log1.5(2^14) ≈ 24 node-array growths plus 11 index doublings.
  EXPECT_LE(allocs, 40u);
  EXPECT_GE(allocs, 14u);
  EXPECT_TRUE(g.validate_closed());
  EXPECT_TRUE(g.is_ancestor(op(A, 1), op(A, kNodes)));
}

}  // namespace
}  // namespace optrep::graph
