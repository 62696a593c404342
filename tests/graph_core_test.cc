// Direct adversarial fuzzing of the sans-I/O graph cores (SYNCG and the
// full-graph baseline), pumped over the in-memory queue harness
// (core_harness.h) with no event loop: garbage event sequences must never
// abort a core, fault-free runs under every interleaving must end with the
// exact union of the two graphs, and lossy runs must quiesce.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/protocol/graph_core.h"
#include "tests/core_harness.h"

namespace optrep::graph::protocol {
namespace {

using test::CoreHarness;
using test::FaultPlan;

struct GraphPair {
  CausalGraph a;  // receiver
  CausalGraph b;  // sender
};

// Two replicas of one multi-site operation history (updates and pairwise
// reconciliations, with merge nodes), so a node id names the same node in
// both graphs — what the receiver's insert_raw requires of a real peer.
GraphPair world_pair(Rng& rng) {
  const auto sites = static_cast<std::uint32_t>(rng.range(2, 5));
  std::vector<CausalGraph> w(sites);
  std::vector<std::uint64_t> seq(sites, 1);
  for (CausalGraph& g : w) g.create(UpdateId{SiteId{31}, 1}, 8);
  const std::uint64_t steps = rng.range(0, 60);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.range(0, sites - 1));
    const auto s = static_cast<std::uint32_t>(rng.range(0, sites - 1));
    if (rng.chance(0.5) || s == r) {
      w[r].append(UpdateId{SiteId{r}, ++seq[r]},
                  static_cast<std::uint32_t>(rng.range(1, 16)));
      continue;
    }
    const vv::Ordering rel = w[r].compare(w[s]);
    for (const Node& n : w[s].all_nodes()) {
      if (!w[r].contains(n.id)) w[r].insert_raw(n);
    }
    if (rel == vv::Ordering::kBefore) w[r].set_sink(w[s].sink());
    if (rel == vv::Ordering::kConcurrent) {
      w[r].merge(UpdateId{SiteId{r}, ++seq[r]}, w[s].sink());
    }
  }
  const auto r = static_cast<std::uint32_t>(rng.range(0, sites - 1));
  const auto s = static_cast<std::uint32_t>((r + 1 + rng.range(0, sites - 2)) % sites);
  return GraphPair{w[r], w[s]};
}

bool is_exact_union(const CausalGraph& result, const CausalGraph& a0,
                    const CausalGraph& b) {
  std::size_t shared = 0;
  for (const Node& n : b.all_nodes()) {
    const Node* got = result.find(n.id);
    if (got == nullptr || !(*got == n)) return false;
    shared += a0.contains(n.id);
  }
  for (const Node& n : a0.all_nodes()) {
    if (!result.contains(n.id)) return false;
  }
  return result.node_count() == a0.node_count() + b.node_count() - shared;
}

const Node& any_node(Rng& rng, const CausalGraph& g) {
  return g.all_nodes()[rng.range(0, g.node_count() - 1)];
}

// A random wire message of any kind. NODE payloads come from the sender's
// graph (the checksum assumption: a corrupted node never reaches a core);
// SKIPTO targets are sender nodes — on the DFS stack, already visited or
// never pushed — or ids the sender has never seen.
GraphMsg garbage_msg(Rng& rng, const CausalGraph& b) {
  GraphMsg m;
  m.kind = static_cast<GraphMsg::Kind>(rng.range(0, 4));
  m.node = any_node(rng, b);
  const auto stranger = [&rng] {
    return UpdateId{SiteId{static_cast<std::uint32_t>(rng.range(0, 63))}, rng.range(0, 63)};
  };
  m.target = rng.chance(0.7) ? any_node(rng, b).id : stranger();
  return m;
}

Event garbage_event(Rng& rng, const CausalGraph& b) {
  switch (rng.range(0, 5)) {
    case 0: return Event::start();
    case 1: return Event::link_free();
    case 2: return Event::abort();
    default: return Event::msg_arrival(garbage_msg(rng, b));
  }
}

// (a) Every graph core absorbs arbitrary event sequences in both modes —
// random kinds, stale and unknown SKIPTO targets, spurious link-free ticks,
// repeated starts and aborts — without aborting; impossible wire messages
// surface as counted violations.
TEST(GraphCoreFuzz, CoresTolerateArbitraryEventSequences) {
  Rng rng(4242001);
  std::uint64_t violations = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    GraphPair p = world_pair(rng);
    const bool pipelined = rng.chance(0.5);
    const bool ship_ops = rng.chance(0.5);
    const std::vector<Node> nodes = p.b.all_nodes();
    CausalGraph a2 = p.a;
    GraphSenderCore sender(pipelined, &p.b);
    GraphReceiverCore receiver(pipelined, &p.a, ship_ops);
    GraphBaselineSenderCore baseline_sender(&nodes);
    GraphBaselineReceiverCore baseline_receiver(&a2, ship_ops);
    Actions out;
    const int events = static_cast<int>(rng.range(10, 80));
    for (int e = 0; e < events; ++e) {
      const Event ev = garbage_event(rng, p.b);
      out.clear();
      sender.step(ev, out);
      // Steer some SKIPTO targets onto the sender's live DFS stack: the
      // parents of a node it just sent were pushed there.
      for (const auto& act : out) {
        const UpdateId parent = rng.chance(0.5) ? act.msg.node.lp : act.msg.node.rp;
        if (act.msg.kind != GraphMsg::Kind::kNode || parent == kNoParent) continue;
        Actions skip_out;
        sender.step(Event::msg_arrival({.kind = GraphMsg::Kind::kSkipTo, .target = parent}),
                    skip_out);
      }
      out.clear();
      receiver.step(ev, out);
      out.clear();
      baseline_sender.step(ev, out);
      out.clear();
      baseline_receiver.step(ev, out);
    }
    violations += sender.violations() + receiver.counters().violations +
                  baseline_receiver.counters().violations;
  }
  EXPECT_GT(violations, 0u);  // the violation paths were exercised
}

enum class Pair { kSyncg, kBaseline };

// One harness run of `pair` from receiver `a` and sender `b`; returns the
// violations both cores counted.
std::uint64_t run_pair(Pair pair, bool pipelined, CausalGraph& a, const CausalGraph& b,
                       Rng& rng, FaultPlan faults) {
  if (pair == Pair::kSyncg) {
    CoreHarness<GraphMsg, GraphSenderCore, GraphReceiverCore> h(
        GraphSenderCore(pipelined, &b), GraphReceiverCore(pipelined, &a, true), rng,
        faults);
    h.run();
    return h.sender().violations() + h.receiver().counters().violations;
  }
  const std::vector<Node> nodes = b.all_nodes();
  CoreHarness<GraphMsg, GraphBaselineSenderCore, GraphBaselineReceiverCore> h(
      GraphBaselineSenderCore(&nodes), GraphBaselineReceiverCore(&a, true), rng, faults);
  h.run();
  return h.sender().violations() + h.receiver().counters().violations;
}

// (b) Fault-free random interleavings, FIFO per direction: every session, in
// pipelined and lock-step mode, ends with exactly the union of the two
// graphs and counts no violation.
TEST(GraphCoreFuzz, FaultFreeInterleavingsYieldExactUnion) {
  Rng rng(4242002);
  for (int iter = 0; iter < 3400; ++iter) {
    const GraphPair p = world_pair(rng);
    for (Pair pair : {Pair::kSyncg, Pair::kBaseline}) {
      for (bool pipelined : {true, false}) {
        CausalGraph a = p.a;
        EXPECT_EQ(run_pair(pair, pipelined, a, p.b, rng, FaultPlan{}), 0u)
            << "iter " << iter << " pair " << static_cast<int>(pair) << " pipelined "
            << pipelined;
        EXPECT_TRUE(is_exact_union(a, p.a, p.b))
            << "iter " << iter << " pair " << static_cast<int>(pair) << " pipelined "
            << pipelined;
      }
    }
  }
}

// (c) Lossy delivery — drop, duplicate and reorder each at 0.1 — may leave
// the receiver short, but no run aborts and every run quiesces (the harness
// flags a livelock past its step cap).
TEST(GraphCoreFuzz, LossyRunsNeitherAbortNorLivelock) {
  Rng rng(4242003);
  const FaultPlan lossy{.drop = 0.1, .dup = 0.1, .reorder = 0.1};
  for (int iter = 0; iter < 3400; ++iter) {
    const GraphPair p = world_pair(rng);
    for (Pair pair : {Pair::kSyncg, Pair::kBaseline}) {
      for (bool pipelined : {true, false}) {
        CausalGraph a = p.a;
        run_pair(pair, pipelined, a, p.b, rng, lossy);
        // Whatever arrived was a node of b: a only ever grows toward a ∪ b.
        for (const Node& n : a.all_nodes()) {
          ASSERT_TRUE(p.a.contains(n.id) || p.b.contains(n.id)) << "iter " << iter;
        }
      }
    }
  }
}

}  // namespace
}  // namespace optrep::graph::protocol
