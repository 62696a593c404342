// Causal graphs for operation-transfer systems (§6).
//
// A causal graph is a DAG in which each node represents one operation; nodes
// have at most two parents (single-parent = a plain update on the parent
// state, double-parent = a reconciliation merging two concurrent states).
// Each replica's graph is closed under ancestry and has one source (the
// object's creation) and one sink (the latest operation executed on the
// replica, §6). Node lookup is O(1), which makes comparison O(1) (§6:
// sink-containment tests).
//
// Nodes are identified by UpdateId (origin site, per-site sequence number),
// which is globally unique and stable across replicas.
//
// Storage: the nodes live in one dense std::vector in insertion order, grown
// 1.5× at a time, and a flat open-addressed IdIndex (graph/id_index.h) maps
// each UpdateId to its position. A lookup is a hash and a short scan of
// 4-byte cells; an insert allocates only when the vector or the index grows,
// so inserting N nodes costs O(log N) allocations, and a one-node graph owns
// one node and one small index. A pointer returned by find() is into that
// vector: it dies on the next insert (create, append, merge, insert_raw).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "graph/id_index.h"
#include "vv/order.h"

namespace optrep::graph {

// UpdateId{} (seq 0) encodes "no parent".
constexpr UpdateId kNoParent{};

struct Node {
  UpdateId id;
  UpdateId lp{kNoParent};  // left parent (single-parent nodes use only lp)
  UpdateId rp{kNoParent};  // right parent (set only for reconciliation nodes)
  // Size of the operation payload this node carries (bytes); used by the
  // benches to separate metadata traffic from operation-data traffic.
  std::uint32_t op_bytes{0};

  bool is_merge() const { return rp != kNoParent; }
  friend bool operator==(const Node&, const Node&) = default;
};

class CausalGraph {
 public:
  CausalGraph() = default;

  bool contains(UpdateId id) const { return slot_of(id) != IdIndex::kNil; }
  // The node with this id, or nullptr. Valid until the next insert.
  const Node* find(UpdateId id) const {
    const std::uint32_t p = slot_of(id);
    return p == IdIndex::kNil ? nullptr : &nodes_[p];
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t arc_count() const { return arcs_; }
  bool empty() const { return nodes_.empty(); }

  UpdateId source() const { return source_; }
  UpdateId sink() const { return sink_; }

  // ---- replica-level operations -------------------------------------------

  // Record the object-creating operation; the graph must be empty.
  void create(UpdateId op, std::uint32_t op_bytes = 0);

  // Record a local operation on top of the current sink (single parent).
  void append(UpdateId op, std::uint32_t op_bytes = 0);

  // Record a reconciliation operation merging the current sink with another
  // head already present in this graph (double parent). The new node becomes
  // the sink.
  void merge(UpdateId op, UpdateId other_head, std::uint32_t op_bytes = 0);

  // After SYNCG the union may be dominated by the remote sink: adopt it.
  // Requires the node to be present.
  void set_sink(UpdateId id);

  // ---- protocol-level operations ------------------------------------------

  // Insert a node received from a peer. Parents need not be present yet (the
  // SYNCG DFS delivers children before their ancestors); closure holds again
  // once the protocol completes — see validate_closed().
  void insert_raw(const Node& n);

  // ---- queries -------------------------------------------------------------

  // §6 comparison: a replica precedes another iff its sink is contained in
  // the other graph but not vice versa; O(1).
  vv::Ordering compare(const CausalGraph& other) const;

  // True iff `ancestor` is reachable from `descendant` by parent arcs
  // (O(|V|); used by tests and reconciliation logic, not by the protocols).
  bool is_ancestor(UpdateId ancestor, UpdateId descendant) const;

  // Every parent referenced by a node is present, there is exactly one
  // parentless node (the source), and the sink dominates the whole graph.
  bool validate_closed() const;

  // Nodes in insertion order. Iterators into it die on the next insert, like
  // find()'s pointer.
  const std::vector<Node>& all_nodes() const { return nodes_; }

  // Total payload bytes across nodes.
  std::uint64_t total_op_bytes() const { return op_bytes_; }

  // Heap bytes held: the node vector's capacity plus the id index's cells.
  std::uint64_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) + index_.memory_bytes();
  }

  // Same node/arc sets, whatever the insertion order (sinks may differ
  // mid-sync).
  bool operator==(const CausalGraph& other) const;

 private:
  std::uint32_t slot_of(UpdateId id) const {
    return index_.find(id, [this](std::uint32_t p) { return nodes_[p].id; });
  }

  std::vector<Node> nodes_;  // insertion order
  IdIndex index_;            // id → position in nodes_
  std::size_t arcs_{0};
  std::uint64_t op_bytes_{0};
  UpdateId source_{kNoParent};
  UpdateId sink_{kNoParent};
};

}  // namespace optrep::graph
