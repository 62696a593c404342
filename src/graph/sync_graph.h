// SYNCG (Algorithm 5): incremental synchronization of causal graphs, plus
// the traditional full-graph-transfer baseline, run over the simulator.
//
// The protocols themselves are the sans-I/O cores of
// graph/protocol/graph_core.h (the DFS sender, the mirror-stack receiver,
// and the baseline pair); a session here drives one sender core and one
// receiver core through the shared simulator driver (vv/core_driver.h) and
// reports its exact traffic, node and timing accounting. SYNCG transmits
// O(|V_b \ V_a| + |A_b \ A_a|): only the missing nodes plus one overlapping
// node per branch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cost_model.h"
#include "graph/causal_graph.h"
#include "graph/protocol/graph_core.h"  // GraphMsg
#include "sim/event_loop.h"
#include "sim/frame_link.h"
#include "vv/session.h"  // TransferMode

namespace optrep::graph {

// Sizes under the §3.3-style cost model: a node id costs log n + log m bits.
std::uint64_t graph_msg_model_bits(const CostModel& cm, const GraphMsg& m);
std::uint64_t graph_msg_wire_bytes(const GraphMsg& m);

// Realistic size of a coalesced wire frame (sim::FrameLink): update ids are
// priced as zigzag-varint deltas along the frame (a DFS streams consecutive
// ids, so the common delta is one or two bytes), capped per message at the
// unframed size; operation payloads ride along unchanged when ship_ops.
// Size-only — graph frames are never materialized as bytes.
std::uint64_t graph_frame_wire_bytes(const std::vector<GraphMsg>& msgs, bool ship_ops);
std::uint64_t graph_frame_wire_bytes_single(const GraphMsg& m, bool ship_ops);

struct GraphSyncOptions {
  vv::TransferMode mode{vv::TransferMode::kPipelined};
  sim::NetConfig net{};
  CostModel cost{};
  // Ship operation payloads with nodes (operation transfer) or metadata only
  // (e.g. a pure anti-entropy round).
  bool ship_ops{true};
};

struct GraphSyncReport {
  vv::Ordering initial_relation{vv::Ordering::kEqual};

  // Traffic per direction (fwd: sender→receiver), as the session's links
  // counted it: model bits cover metadata only, realistic bytes include the
  // operation payloads, and frames are the coalesced wire frames with their
  // delta-varint bytes (model bits are identical with framing on or off).
  // Reports of several syncs add with `+=` on fwd and rev. loop_events
  // counts the event-loop dispatches the sync executed.
  sim::LinkStats fwd;
  sim::LinkStats rev;
  std::uint64_t loop_events{0};

  std::uint64_t nodes_sent{0};       // kNode messages transmitted
  std::uint64_t nodes_new{0};        // |V_b \ V_a| delivered
  std::uint64_t nodes_redundant{0};  // overlap nodes received (≈ one per branch)
  std::uint64_t skipto_msgs{0};
  std::uint64_t op_bytes_shipped{0};
  std::uint64_t ack_msgs{0};
  // Ids of the nodes that were new to the receiver (insertion order); used
  // by hybrid-transfer stores to fetch the matching operation payloads.
  std::vector<UpdateId> new_node_ids;

  sim::Time duration{0};

  std::uint64_t total_bits() const { return fwd.model_bits + rev.model_bits; }
};

// SYNCG_b(a): modify graph a to become the union of a and b. The sink is not
// changed (the caller — e.g. the operation-transfer store — decides whether
// to fast-forward to b's sink or to add a reconciliation node).
GraphSyncReport sync_graph(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                           const GraphSyncOptions& opt);

// Baseline: transmit all of b's nodes; receiver unions.
GraphSyncReport sync_graph_full(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                                const GraphSyncOptions& opt);

}  // namespace optrep::graph
