// Golden-transcript regression for SYNCG and the full-graph baseline.
//
// tests/data/golden_graph_sessions.txt was captured from the sender/receiver
// actor pair that ran SYNCG before the graph protocol became sans-I/O cores
// (graph/protocol/). This test regenerates the same grid — Figure 3's graphs
// in both directions, an empty receiver, identical graphs, a deep chain and
// seeded merge-heavy histories, each under every transfer mode × frame
// budget × ship_ops × link setting, for both sync_graph and sync_graph_full,
// plus a run of sessions sharing one event loop the way ScenarioWorld runs
// them — and requires every GraphSyncReport field and the receiver's final
// node set to be bit-identical. Any drift is a protocol change, not a
// refactor.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/sync_graph.h"

namespace optrep::graph {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 1099511628211ull; }

std::uint64_t id_hash(std::uint64_t h, UpdateId id) {
  return mix(mix(h, id.site.value), id.seq);
}

// Order-independent: a sum of per-node hashes, so insertion order (which
// the DFS decides) does not matter, only the node set and its contents.
std::uint64_t graph_digest(const CausalGraph& g) {
  std::uint64_t sum = 0;
  for (const Node& n : g.all_nodes()) {
    std::uint64_t h = 1469598103934665603ull;
    h = id_hash(id_hash(id_hash(h, n.id), n.lp), n.rp);
    sum += mix(h, n.op_bytes);
  }
  return sum;
}

std::string report_line(const std::string& tag, const GraphSyncReport& r,
                        const CausalGraph& receiver) {
  std::uint64_t ids = 1469598103934665603ull;  // in-order digest of new_node_ids
  for (const UpdateId& id : r.new_node_ids) ids = id_hash(ids, id);
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "%s %d %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                "%llu %llu %llu %llu %llu %zu %llu %.17g %zu %llu",
                tag.c_str(), static_cast<int>(r.initial_relation),
                (unsigned long long)r.fwd.model_bits, (unsigned long long)r.rev.model_bits,
                (unsigned long long)r.fwd.wire_bytes, (unsigned long long)r.rev.wire_bytes,
                (unsigned long long)r.fwd.messages, (unsigned long long)r.rev.messages,
                (unsigned long long)r.fwd.frames, (unsigned long long)r.rev.frames,
                (unsigned long long)r.fwd.framed_wire_bytes,
                (unsigned long long)r.rev.framed_wire_bytes,
                (unsigned long long)r.loop_events, (unsigned long long)r.nodes_sent,
                (unsigned long long)r.nodes_new, (unsigned long long)r.nodes_redundant,
                (unsigned long long)r.skipto_msgs, (unsigned long long)r.op_bytes_shipped,
                (unsigned long long)r.ack_msgs, r.new_node_ids.size(),
                (unsigned long long)ids, r.duration, receiver.node_count(),
                (unsigned long long)graph_digest(receiver));
  return buf;
}

struct GraphPair {
  const char* name;
  CausalGraph a;  // receiver
  CausalGraph b;  // sender
};

// Bring `b`'s nodes into `a` the way an operation-transfer replica ends a
// sync: adopt a dominating sink, or record a reconciliation node.
void absorb(CausalGraph& a, const CausalGraph& b, UpdateId merge_id) {
  const vv::Ordering rel = a.compare(b);
  for (const Node& n : b.all_nodes()) {
    if (!a.contains(n.id)) a.insert_raw(n);
  }
  if (rel == vv::Ordering::kBefore) a.set_sink(b.sink());
  if (rel == vv::Ordering::kConcurrent) a.merge(merge_id, b.sink());
}

// A multi-site history in which most steps are pairwise reconciliations, so
// the graphs are dense with merge nodes and the DFS keeps branching.
GraphPair merge_heavy_pair(const char* name, std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::uint32_t kSites = 5;
  std::vector<CausalGraph> w(kSites);
  std::vector<std::uint64_t> seq(kSites, 1);
  for (CausalGraph& g : w) g.create(UpdateId{SiteId{31}, 1}, 40);
  for (int step = 0; step < 90; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.range(0, kSites - 1));
    const auto op_bytes = static_cast<std::uint32_t>(rng.range(1, 64));
    if (rng.chance(0.4)) {
      w[r].append(UpdateId{SiteId{r}, ++seq[r]}, op_bytes);
      continue;
    }
    const auto s = static_cast<std::uint32_t>(rng.range(0, kSites - 1));
    if (s != r) absorb(w[r], w[s], UpdateId{SiteId{r}, ++seq[r]});
  }
  return GraphPair{name, w[0], w[1]};
}

std::vector<GraphPair> graph_pairs() {
  std::vector<GraphPair> pairs;
  // Figure 3: site A holds 1, 2 and 4–7; site C holds 1 and 4–6.
  const UpdateId n1{SiteId{0}, 1}, n2{SiteId{1}, 1}, n4{SiteId{4}, 1}, n5{SiteId{5}, 1},
      n6{SiteId{6}, 1}, n7{SiteId{0}, 2};
  CausalGraph site_a, site_c;
  site_a.create(n1, 10);
  site_a.append(n2, 20);
  site_a.insert_raw(Node{n4, n1, kNoParent, 30});
  site_a.insert_raw(Node{n5, n4, kNoParent, 40});
  site_a.insert_raw(Node{n6, n5, kNoParent, 50});
  site_a.merge(n7, n6, 60);
  site_c.create(n1, 10);
  site_c.append(n4, 30);
  site_c.append(n5, 40);
  site_c.append(n6, 50);
  pairs.push_back({"fig3-c<-a", site_c, site_a});
  pairs.push_back({"fig3-a<-c", site_a, site_c});
  pairs.push_back({"empty<-a", CausalGraph{}, site_a});
  pairs.push_back({"same", site_a, site_a});
  CausalGraph chain;
  chain.create(UpdateId{SiteId{2}, 1}, 8);
  for (std::uint64_t i = 2; i <= 12; ++i) chain.append(UpdateId{SiteId{2}, i}, 8);
  CausalGraph long_chain = chain;
  for (std::uint64_t i = 13; i <= 80; ++i) long_chain.append(UpdateId{SiteId{2}, i}, 8);
  pairs.push_back({"chain", chain, long_chain});
  pairs.push_back(merge_heavy_pair("merge-7", 7));
  pairs.push_back(merge_heavy_pair("merge-2027", 2027));
  return pairs;
}

// Regenerate the exact grid the golden file was captured from. The seeds, the
// draw order and the session parameters must never change — edit the golden
// file and this generator together or not at all.
std::vector<std::string> generate_grid() {
  std::vector<std::string> out;
  for (const GraphPair& p : graph_pairs()) {
    for (bool full : {false, true}) {
      for (auto mode :
           {vv::TransferMode::kIdeal, vv::TransferMode::kStopAndWait,
            vv::TransferMode::kPipelined}) {
        for (std::uint32_t budget : {0u, 16u}) {
          for (bool ship_ops : {true, false}) {
            for (bool slow : {false, true}) {
              GraphSyncOptions opt;
              opt.mode = mode;
              opt.cost = CostModel{.n = 32, .m = 1 << 16};
              if (slow) opt.net = {.latency_s = 0.001, .bandwidth_bits_per_s = 1e5};
              opt.net.frame_budget = budget;
              opt.ship_ops = ship_ops;
              CausalGraph a = p.a;
              sim::EventLoop loop;
              const GraphSyncReport r =
                  full ? sync_graph_full(loop, a, p.b, opt) : sync_graph(loop, a, p.b, opt);
              const std::string tag =
                  std::string(full ? "full:" : "syncg:") + p.name + ":" +
                  std::to_string(static_cast<int>(mode)) + ":" + std::to_string(budget) +
                  ":" + std::to_string(ship_ops) + ":" + std::to_string(slow);
              out.push_back(report_line(tag, r, a));
            }
          }
        }
      }
    }
  }
  // Sessions sharing one event loop, as ScenarioWorld runs them: every
  // session starts at the clock the previous one left behind.
  Rng rng(9001);
  constexpr std::uint32_t kSites = 6;
  std::vector<CausalGraph> w(kSites);
  std::vector<std::uint64_t> seq(kSites, 1);
  for (CausalGraph& g : w) g.create(UpdateId{SiteId{40}, 1}, 16);
  sim::EventLoop loop;
  for (int i = 0; i < 30; ++i) {
    for (int k = 0; k < 3; ++k) {
      const auto r = static_cast<std::uint32_t>(rng.range(0, kSites - 1));
      w[r].append(UpdateId{SiteId{r}, ++seq[r]},
                  static_cast<std::uint32_t>(rng.range(1, 32)));
    }
    const auto r = static_cast<std::uint32_t>(rng.range(0, kSites - 1));
    const auto s = static_cast<std::uint32_t>((r + 1 + rng.range(0, kSites - 2)) % kSites);
    GraphSyncOptions opt;
    opt.mode = static_cast<vv::TransferMode>(i % 3);
    opt.cost = CostModel{.n = kSites, .m = 1 << 16};
    opt.net = {.latency_s = 0.001, .bandwidth_bits_per_s = 1e5};
    opt.net.frame_budget = i % 2 == 0 ? 16 : 0;
    opt.ship_ops = i % 4 < 2;
    const vv::Ordering rel = w[r].compare(w[s]);
    const GraphSyncReport rep = i % 5 == 4 ? sync_graph_full(loop, w[r], w[s], opt)
                                           : sync_graph(loop, w[r], w[s], opt);
    char now[32];
    std::snprintf(now, sizeof now, " %.17g", loop.now());
    out.push_back(report_line("shared:" + std::to_string(i), rep, w[r]) + now);
    // The sync left w[r] holding the union; settle its sink like a replica.
    if (rel == vv::Ordering::kBefore) w[r].set_sink(w[s].sink());
    if (rel == vv::Ordering::kConcurrent) {
      w[r].merge(UpdateId{SiteId{r}, ++seq[r]}, w[s].sink());
    }
  }
  return out;
}

std::vector<std::string> load_golden() {
  std::ifstream in(std::string(OPTREP_TEST_DATA_DIR) + "/golden_graph_sessions.txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(GraphGolden, SessionsMatchPreRefactorCapture) {
  const std::vector<std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "golden_graph_sessions.txt missing or empty";
  const std::vector<std::string> now = generate_grid();
  ASSERT_EQ(now.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(now[i], golden[i]) << "golden line " << i + 1;
  }
}

}  // namespace
}  // namespace optrep::graph
