// Sans-I/O cores for SYNCG (Algorithm 5) and the full-graph baseline.
//
// The SYNCG sender runs a depth-first search from its sink along reverse
// arcs, streaming each node (with its two parent ids and, in operation-
// transfer systems, its operation payload). When the receiver sees a node it
// already has, it tells the sender to abort the current branch and names the
// node the next branch should start from (taken from a mirror of the
// sender's DFS stack). Only the missing nodes plus one overlapping node per
// branch are transmitted: O(|V_b \ V_a| + |A_b \ A_a|) communication.
//
// The cores speak the generic vocabulary of vv/protocol/core.h over GraphMsg
// and follow its robustness contract: an ACK in pipelined mode, a kind the
// role never receives and a SKIPTO target missing from the DFS stack are
// counted in violations() and ignored. The simulator driver
// (vv/core_driver.h) pumps them; graph/sync_graph.cc wires the sessions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/causal_graph.h"
#include "graph/id_index.h"
#include "vv/protocol/core.h"

namespace optrep::graph {

struct GraphMsg {
  enum class Kind : std::uint8_t {
    kNode,    // sender→receiver: node id + parents (+ operation payload)
    kSkipTo,  // receiver→sender: abort branch; next branch starts at `target`
    kJumped,  // sender→receiver: a SKIPTO was honored (O(1) marker letting
              // the receiver distinguish in-flight stragglers from the next
              // branch; the graph analogue of SYNCS's SKIPPED — DESIGN.md)
    kHalt,    // either direction: sender exhausted / receiver has everything
    kAck,     // stop-and-wait flow control (ablation modes)
  };
  Kind kind{Kind::kNode};
  Node node{};        // kNode
  UpdateId target{};  // kSkipTo
};

namespace protocol {

using Event = vv::protocol::BasicEvent<GraphMsg>;
using Actions = vv::protocol::BasicActions<GraphMsg>;
using vv::protocol::ActionType;
using vv::protocol::emit;
using vv::protocol::EventType;

// Algorithm 5, b's hosting site: DFS from the sink, reverse arc direction.
// Pipelined mode sends one node per pump dispatch and parks a continuation
// at the link-free time; lock-step modes send one node per ACK or SKIPTO.
class GraphSenderCore {
 public:
  GraphSenderCore(bool pipelined, const CausalGraph* b) : pipelined_(pipelined), b_(b) {
    if (!b_->empty()) stack_.push_back(b_->sink());
  }

  void step(const Event& ev, Actions& out) {
    if (done_) return;
    const GraphMsg::Kind kind = ev.msg.kind;
    if (ev.type == EventType::kAbort) {
      done_ = true;
    } else if (ev.type != EventType::kMsg) {
      next(out);  // kStart, or the pipelined pump's kLinkFree
    } else if (kind == GraphMsg::Kind::kHalt) {
      finish(out);
    } else if (kind == GraphMsg::Kind::kSkipTo) {
      if (skip_to(ev.msg.target, out) && !pipelined_) next(out);  // doubles as the ack
    } else if (kind == GraphMsg::Kind::kAck && !pipelined_) {
      next(out);
    } else {
      ++violations_;  // an ACK in pipelined mode, or a kind the sender never receives
    }
  }

  std::uint64_t nodes_sent() const { return nodes_sent_; }
  std::uint64_t violations() const { return violations_; }

 private:
  // Pop until an unvisited node is found and send it; HALT when exhausted.
  void next(Actions& out) {
    while (!stack_.empty()) {
      const UpdateId i = stack_.back();
      stack_.pop_back();
      if (!visited_.insert(i)) continue;
      const Node* n = b_->find(i);
      OPTREP_CHECK(n != nullptr);
      // Alg 5 lines 7–9: send (i, LP, RP); push RP then LP so LP pops first.
      if (n->rp != kNoParent) stack_.push_back(n->rp);
      if (n->lp != kNoParent) stack_.push_back(n->lp);
      emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kNode, .node = *n});
      ++nodes_sent_;
      if (pipelined_) emit(out, ActionType::kPumpWhenFree);
      return;
    }
    emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kHalt});
    finish(out);
  }

  // Alg 5 lines 11–13: rewind the stack to `target` unless it was already
  // visited (the receiver's request raced with our progress). An honored
  // rewind is confirmed with a JUMPED marker so the receiver can tell
  // in-flight stragglers of the aborted branch from the next branch.
  bool skip_to(UpdateId target, Actions& out) {
    if (visited_.contains(target)) return true;
    const auto it = std::find(stack_.rbegin(), stack_.rend(), target);
    if (it == stack_.rend()) {
      ++violations_;
      return false;
    }
    stack_.erase(it.base(), stack_.end());
    emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kJumped});
    return true;
  }

  void finish(Actions& out) {
    done_ = true;
    emit(out, ActionType::kFinished);
  }

  bool pipelined_;
  const CausalGraph* b_;
  std::vector<UpdateId> stack_;
  IdSet visited_;  // sized by the nodes visited, not by |V_b|
  std::uint64_t nodes_sent_{0};
  std::uint64_t violations_{0};
  bool done_{false};
};

// The full-graph baseline's sender: every node of a caller-sorted list, then
// HALT, all on kStart; the link's FIFO pacing models transmission time.
class GraphBaselineSenderCore {
 public:
  explicit GraphBaselineSenderCore(const std::vector<Node>* nodes) : nodes_(nodes) {}

  void step(const Event& ev, Actions& out) {
    if (ev.type != EventType::kStart || done_) return;
    for (const Node& n : *nodes_) {
      emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kNode, .node = n});
    }
    emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kHalt});
    done_ = true;
  }

  std::uint64_t nodes_sent() const { return nodes_->size(); }
  std::uint64_t violations() const { return 0; }  // receives nothing

 private:
  const std::vector<Node>* nodes_;
  bool done_{false};
};

struct GraphReceiverCounters {
  std::uint64_t nodes_new{0};        // |V_b \ V_a| delivered
  std::uint64_t nodes_redundant{0};  // overlap nodes received
  std::uint64_t skipto_msgs{0};
  std::uint64_t op_bytes{0};  // payload bytes of new nodes, when shipped
  std::uint64_t acks{0};
  std::uint64_t violations{0};
};

// What both graph receivers share: the graph `a` being joined, the
// counters, and the ids of the nodes new to `a` in arrival order.
class GraphReceiverBase {
 public:
  GraphReceiverBase(CausalGraph* a, bool ship_ops) : a_(a), ship_ops_(ship_ops) {}

  const GraphReceiverCounters& counters() const { return c_; }
  bool finished() const { return finished_; }
  std::vector<UpdateId> take_new_node_ids() { return std::move(new_node_ids_); }

 protected:
  // Insert a node `a` lacks (true), or count a known one redundant (false).
  bool absorb(const Node& n) {
    if (a_->contains(n.id)) {
      ++c_.nodes_redundant;
      return false;
    }
    a_->insert_raw(n);
    ++c_.nodes_new;
    new_node_ids_.push_back(n.id);
    c_.op_bytes += ship_ops_ ? n.op_bytes : 0;
    return true;
  }

  void mark_finished(Actions& out) {
    if (!finished_) {
      finished_ = true;
      emit(out, ActionType::kFinished);
    }
  }

  // Handles what every receiver handles alike (abort, HALT); true when the
  // event is another wire message, left to the caller.
  bool accept(const Event& ev, Actions& out) {
    if (ev.type == EventType::kAbort) finished_ = true;
    if (ev.type != EventType::kMsg) return false;
    if (ev.msg.kind != GraphMsg::Kind::kHalt) return true;
    mark_finished(out);
    return false;
  }

  CausalGraph* a_;
  bool ship_ops_;
  bool finished_{false};
  GraphReceiverCounters c_;
  std::vector<UpdateId> new_node_ids_;
};

// Algorithm 5, a's hosting site: mirrors the sender's stack of pending right
// parents; on an existing node, names the next branch head to jump to.
class GraphReceiverCore : public GraphReceiverBase {
 public:
  GraphReceiverCore(bool pipelined, CausalGraph* a, bool ship_ops)
      : GraphReceiverBase(a, ship_ops), pipelined_(pipelined) {}

  void step(const Event& ev, Actions& out) {
    if (!accept(ev, out)) return;
    const Node& n = ev.msg.node;
    if (ev.msg.kind == GraphMsg::Kind::kJumped) {
      skipping_ = false;  // the sender switched branches; stragglers are over
    } else if (ev.msg.kind != GraphMsg::Kind::kNode) {
      ++c_.violations;  // SKIPTO or ACK: kinds the receiver never receives
    } else if (finished_) {
      // pipelining overshoot past our HALT
    } else if (!absorb(n)) {
      on_known(out);
    } else {
      skipping_ = false;
      if (!mirror_.empty() && mirror_.back() == n.id) mirror_.pop_back();
      if (n.rp != kNoParent && !a_->contains(n.rp)) mirror_.push_back(n.rp);
      if (!pipelined_) {
        emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kAck});
        ++c_.acks;
      }
    }
  }

 private:
  void on_known(Actions& out) {
    // In pipelined mode, a known node while skipping_ is an in-flight
    // straggler of a branch we already aborted: stay silent. In lockstep
    // modes there are no stragglers and the sender is blocked on us, so we
    // always respond.
    if (skipping_ && pipelined_) return;
    skipping_ = true;
    // Pop mirror entries we already have: branches starting there need no
    // transmission either (containment is ancestor-closed). An empty mirror
    // means everything the sender still holds is known here — stop the
    // whole synchronization.
    while (!mirror_.empty()) {
      const UpdateId candidate = mirror_.back();
      mirror_.pop_back();
      if (!a_->contains(candidate)) {
        emit(out, ActionType::kSend,
             GraphMsg{.kind = GraphMsg::Kind::kSkipTo, .target = candidate});
        ++c_.skipto_msgs;
        return;
      }
    }
    emit(out, ActionType::kSend, GraphMsg{.kind = GraphMsg::Kind::kHalt});
    mark_finished(out);
  }

  bool pipelined_;
  bool skipping_{false};
  std::vector<UpdateId> mirror_;  // s' of Alg 5
};

// The full-graph baseline's receiver: unions every node it is sent.
class GraphBaselineReceiverCore : public GraphReceiverBase {
 public:
  using GraphReceiverBase::GraphReceiverBase;

  void step(const Event& ev, Actions& out) {
    if (!accept(ev, out)) return;
    if (ev.msg.kind == GraphMsg::Kind::kNode) {
      absorb(ev.msg.node);
    } else {
      ++c_.violations;
    }
  }
};

}  // namespace protocol
}  // namespace optrep::graph
