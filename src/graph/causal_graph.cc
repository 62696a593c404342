#include "graph/causal_graph.h"

#include <vector>

namespace optrep::graph {

void CausalGraph::create(UpdateId op, std::uint32_t op_bytes) {
  OPTREP_CHECK_MSG(nodes_.empty(), "create() on a non-empty graph");
  OPTREP_CHECK_MSG(op != kNoParent, "operation id must be non-zero");
  insert_raw(Node{op, kNoParent, kNoParent, op_bytes});
  source_ = op;
  sink_ = op;
}

void CausalGraph::append(UpdateId op, std::uint32_t op_bytes) {
  OPTREP_CHECK_MSG(!nodes_.empty(), "append() on an empty graph");
  OPTREP_CHECK_MSG(!contains(op), "duplicate operation id");
  insert_raw(Node{op, sink_, kNoParent, op_bytes});
  sink_ = op;
}

void CausalGraph::merge(UpdateId op, UpdateId other_head, std::uint32_t op_bytes) {
  OPTREP_CHECK_MSG(contains(other_head), "merge head must be present");
  OPTREP_CHECK_MSG(!contains(op), "duplicate operation id");
  OPTREP_CHECK(other_head != sink_);
  insert_raw(Node{op, sink_, other_head, op_bytes});
  sink_ = op;
}

void CausalGraph::set_sink(UpdateId id) {
  OPTREP_CHECK_MSG(contains(id), "sink must be present");
  sink_ = id;
}

void CausalGraph::insert_raw(const Node& n) {
  const std::uint32_t p =
      index_.find_or_insert(n.id, [this](std::uint32_t q) { return nodes_[q].id; });
  if (p != IdIndex::kNil) {
    OPTREP_CHECK_MSG(nodes_[p] == n, "conflicting node contents for one id");
    return;
  }
  if (nodes_.size() == nodes_.capacity()) {
    nodes_.reserve(nodes_.size() + nodes_.size() / 2 + 1);
  }
  nodes_.push_back(n);
  arcs_ += (n.lp != kNoParent) + (n.rp != kNoParent);
  op_bytes_ += n.op_bytes;
  if (n.lp == kNoParent && n.rp == kNoParent && source_ == kNoParent) source_ = n.id;
}

vv::Ordering CausalGraph::compare(const CausalGraph& other) const {
  if (empty() && other.empty()) return vv::Ordering::kEqual;
  if (empty()) return vv::Ordering::kBefore;
  if (other.empty()) return vv::Ordering::kAfter;
  const bool mine_in_theirs = other.contains(sink_);
  const bool theirs_in_mine = contains(other.sink_);
  if (mine_in_theirs && theirs_in_mine) return vv::Ordering::kEqual;
  if (mine_in_theirs) return vv::Ordering::kBefore;
  if (theirs_in_mine) return vv::Ordering::kAfter;
  return vv::Ordering::kConcurrent;
}

bool CausalGraph::is_ancestor(UpdateId ancestor, UpdateId descendant) const {
  const std::uint32_t target = slot_of(ancestor);
  const std::uint32_t from = slot_of(descendant);
  if (target == IdIndex::kNil || from == IdIndex::kNil) return false;
  std::vector<std::uint8_t> seen(nodes_.size(), 0);  // by position in nodes_
  std::vector<std::uint32_t> stack{from};
  while (!stack.empty()) {
    const std::uint32_t cur = stack.back();
    stack.pop_back();
    if (cur == target) return true;
    if (seen[cur] != 0) continue;
    seen[cur] = 1;
    const Node& n = nodes_[cur];
    for (const UpdateId parent : {n.lp, n.rp}) {
      if (parent == kNoParent) continue;
      const std::uint32_t q = slot_of(parent);
      if (q != IdIndex::kNil) stack.push_back(q);  // absent mid-sync: skip
    }
  }
  return false;
}

bool CausalGraph::validate_closed() const {
  if (nodes_.empty()) return true;
  std::size_t roots = 0;
  for (const Node& n : nodes_) roots += n.lp == kNoParent && n.rp == kNoParent;
  if (roots != 1) return false;
  const std::uint32_t sink = slot_of(sink_);
  if (sink == IdIndex::kNil) return false;
  // The sink must dominate the graph: every node is an ancestor of the sink.
  // A node the walk does not reach fails that count, so checking the parents
  // of reached nodes checks every parent.
  std::size_t reached = 0;
  std::vector<std::uint8_t> seen(nodes_.size(), 0);  // by position in nodes_
  std::vector<std::uint32_t> stack{sink};
  while (!stack.empty()) {
    const std::uint32_t cur = stack.back();
    stack.pop_back();
    if (seen[cur] != 0) continue;
    seen[cur] = 1;
    ++reached;
    const Node& n = nodes_[cur];
    for (const UpdateId parent : {n.lp, n.rp}) {
      if (parent == kNoParent) continue;
      const std::uint32_t q = slot_of(parent);
      if (q == IdIndex::kNil) return false;  // dangling parent
      stack.push_back(q);
    }
  }
  return reached == nodes_.size();
}

bool CausalGraph::operator==(const CausalGraph& other) const {
  if (node_count() != other.node_count()) return false;
  for (const Node& n : nodes_) {
    const Node* theirs = other.find(n.id);
    if (theirs == nullptr || !(*theirs == n)) return false;
  }
  return true;
}

}  // namespace optrep::graph
