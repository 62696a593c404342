#include "graph/sync_graph.h"

#include <algorithm>
#include <vector>

#include "vv/frame_codec.h"

namespace optrep::graph {

std::string GraphMsg::to_string() const {
  switch (kind) {
    case Kind::kNode: return "NODE(" + update_name(node.id) + ")";
    case Kind::kSkipTo: return "SKIPTO(" + update_name(target) + ")";
    case Kind::kJumped: return "JUMPED";
    case Kind::kHalt: return "HALT";
    case Kind::kAck: return "ACK";
  }
  return "?";
}

std::uint64_t graph_msg_model_bits(const CostModel& cm, const GraphMsg& m) {
  const std::uint64_t id_bits = cm.site_bits() + cm.value_bits();
  switch (m.kind) {
    case GraphMsg::Kind::kNode:
      // type flag + node id + two optional parent ids (1 presence bit each).
      return 1 + id_bits + 2 * (1 + id_bits);
    case GraphMsg::Kind::kSkipTo: return 1 + id_bits;
    case GraphMsg::Kind::kJumped: return 2;
    case GraphMsg::Kind::kHalt: return 2;
    case GraphMsg::Kind::kAck: return 1;
  }
  return 0;
}

std::uint64_t graph_msg_wire_bytes(const GraphMsg& m) {
  switch (m.kind) {
    case GraphMsg::Kind::kNode: return 1 + 3 * 12;  // tag + 3 × (site+seq)
    case GraphMsg::Kind::kSkipTo: return 1 + 12;
    case GraphMsg::Kind::kJumped: return 1;
    case GraphMsg::Kind::kHalt: return 1;
    case GraphMsg::Kind::kAck: return 1;
  }
  return 0;
}

namespace {

// Varint-delta cost of one id against the running chain; advances the chain.
std::uint64_t id_delta_bytes(UpdateId& prev, UpdateId id) {
  const std::uint64_t site_zz = vv::zigzag(static_cast<std::int64_t>(id.site.value) -
                                           static_cast<std::int64_t>(prev.site.value));
  const std::uint64_t seq_zz = vv::zigzag(static_cast<std::int64_t>(id.seq - prev.seq));
  prev = id;
  return vv::varint_len(site_zz) + vv::varint_len(seq_zz);
}

// Framed size of one message; `prev` is the cross-message delta base (the id
// of the last node or skip target seen in this frame). Metadata is capped at
// the unframed size per message — a frame never exceeds the messages it
// replaces; operation payloads are incompressible and ride along as-is.
std::uint64_t graph_msg_framed_bytes(UpdateId& prev, const GraphMsg& m, bool ship_ops) {
  switch (m.kind) {
    case GraphMsg::Kind::kNode: {
      UpdateId chain = prev;
      std::uint64_t b = 1 + id_delta_bytes(chain, m.node.id);
      b += id_delta_bytes(chain, m.node.lp);
      b += id_delta_bytes(chain, m.node.rp);
      prev = m.node.id;
      return std::min(b, graph_msg_wire_bytes(m)) +
             (ship_ops ? m.node.op_bytes : 0);
    }
    case GraphMsg::Kind::kSkipTo: {
      UpdateId chain = prev;
      const std::uint64_t b = 1 + id_delta_bytes(chain, m.target);
      prev = m.target;
      return std::min(b, graph_msg_wire_bytes(m));
    }
    case GraphMsg::Kind::kJumped:
    case GraphMsg::Kind::kHalt:
    case GraphMsg::Kind::kAck:
      return 1;
  }
  return 0;
}

}  // namespace

std::uint64_t graph_frame_wire_bytes(const std::vector<GraphMsg>& msgs, bool ship_ops) {
  UpdateId prev{};
  std::uint64_t total = 0;
  for (const GraphMsg& m : msgs) total += graph_msg_framed_bytes(prev, m, ship_ops);
  return total;
}

std::uint64_t graph_frame_wire_bytes_single(const GraphMsg& m, bool ship_ops) {
  UpdateId prev{};
  return graph_msg_framed_bytes(prev, m, ship_ops);
}

namespace {

class GraphPeer {
 public:
  GraphPeer(sim::EventLoop* loop, sim::FrameLink<GraphMsg>* tx, const GraphSyncOptions* opt)
      : loop_(loop), tx_(tx), opt_(opt) {}
  virtual ~GraphPeer() = default;
  virtual void on_message(const GraphMsg& m) = 0;

 protected:
  sim::Time send(const GraphMsg& m) {
    std::uint64_t bits = graph_msg_model_bits(opt_->cost, m);
    std::uint64_t bytes = graph_msg_wire_bytes(m);
    if (m.kind == GraphMsg::Kind::kNode && opt_->ship_ops) bytes += m.node.op_bytes;
    if (m.kind == GraphMsg::Kind::kAck && opt_->mode == vv::TransferMode::kIdeal) {
      bits = 0;
      bytes = 0;
    }
    return tx_->send(m, bits, bytes);
  }

  bool pipelined() const { return opt_->mode == vv::TransferMode::kPipelined; }

  sim::EventLoop* loop_;
  sim::FrameLink<GraphMsg>* tx_;
  const GraphSyncOptions* opt_;
};

// Algorithm 5, b's hosting site: DFS from the sink, reverse arc direction.
class GraphSender : public GraphPeer {
 public:
  GraphSender(sim::EventLoop* loop, sim::FrameLink<GraphMsg>* tx, const GraphSyncOptions* opt,
              const CausalGraph* b)
      : GraphPeer(loop, tx, opt), b_(b) {
    if (!b_->empty()) stack_.push_back(b_->sink());
  }

  void start() {
    if (pipelined()) {
      pump();
    } else {
      step_lockstep();
    }
  }

  void on_message(const GraphMsg& m) override {
    if (done_) return;
    switch (m.kind) {
      case GraphMsg::Kind::kHalt:
        finish();
        break;
      case GraphMsg::Kind::kSkipTo:
        handle_skipto(m.target);
        if (!pipelined()) step_lockstep();  // SKIPTO doubles as the ack
        break;
      case GraphMsg::Kind::kAck:
        OPTREP_CHECK_MSG(!pipelined(), "ACK in pipelined mode");
        step_lockstep();
        break;
      default:
        OPTREP_CHECK_MSG(false, "unexpected message at graph sender");
    }
  }

  std::uint64_t nodes_sent() const { return nodes_sent_; }

 private:
  void pump() {
    pending_ = 0;
    if (done_) return;
    const sim::Time free = emit_one();
    if (done_) return;
    pending_ = loop_->schedule(free, [this] { pump(); });
  }

  void step_lockstep() {
    if (done_) return;
    // Skip already-visited stack entries without consuming a round trip.
    emit_one();
  }

  // Pop until an unvisited node is found and send it; HALT when exhausted.
  // Returns the link-free time of whatever was sent.
  sim::Time emit_one() {
    while (!stack_.empty()) {
      const UpdateId i = stack_.back();
      stack_.pop_back();
      if (visited_.contains(i)) continue;
      visited_.emplace(i, true);
      const Node* n = b_->find(i);
      OPTREP_CHECK(n != nullptr);
      // Alg 5 lines 7–9: send (i, LP, RP); push RP then LP so LP pops first.
      if (n->rp != kNoParent) stack_.push_back(n->rp);
      if (n->lp != kNoParent) stack_.push_back(n->lp);
      GraphMsg m;
      m.kind = GraphMsg::Kind::kNode;
      m.node = *n;
      const sim::Time free = send(m);
      ++nodes_sent_;
      return free;
    }
    const sim::Time free = send(GraphMsg{.kind = GraphMsg::Kind::kHalt});
    finish();
    return free;
  }

  // Alg 5 lines 11–13: rewind the stack to `target` unless it was already
  // visited (the receiver's request raced with our progress). An honored
  // rewind is confirmed with a JUMPED marker so the receiver can tell
  // in-flight stragglers of the aborted branch from the next branch.
  void handle_skipto(UpdateId target) {
    if (visited_.contains(target)) return;
    while (!stack_.empty() && stack_.back() != target) stack_.pop_back();
    OPTREP_CHECK_MSG(!stack_.empty(), "skipto target missing from DFS stack");
    send(GraphMsg{.kind = GraphMsg::Kind::kJumped});
  }

  void finish() {
    done_ = true;
    if (pending_ != 0) {
      loop_->cancel(pending_);
      pending_ = 0;
    }
  }

  const CausalGraph* b_;
  std::vector<UpdateId> stack_;
  std::unordered_map<UpdateId, bool> visited_;
  std::uint64_t nodes_sent_{0};
  bool done_{false};
  sim::EventLoop::EventId pending_{0};
};

// Algorithm 5, a's hosting site: mirrors the sender's stack of pending right
// parents; on an existing node, names the next branch head to jump to.
class GraphReceiver : public GraphPeer {
 public:
  GraphReceiver(sim::EventLoop* loop, sim::FrameLink<GraphMsg>* tx, const GraphSyncOptions* opt,
                CausalGraph* a)
      : GraphPeer(loop, tx, opt), a_(a) {}

  void on_message(const GraphMsg& m) override {
    switch (m.kind) {
      case GraphMsg::Kind::kHalt:
        finished_ = true;
        return;
      case GraphMsg::Kind::kJumped:
        // The sender switched branches; stragglers are over.
        skipping_ = false;
        return;
      case GraphMsg::Kind::kNode:
        break;
      default:
        OPTREP_CHECK_MSG(false, "unexpected message at graph receiver");
    }
    if (finished_) {
      ++nodes_after_halt_;
      return;
    }
    const Node& n = m.node;
    if (a_->contains(n.id)) {
      ++nodes_redundant_;
      // In pipelined mode, a known node while skipping_ is an in-flight
      // straggler of a branch we already aborted: stay silent. In lockstep
      // modes there are no stragglers and the sender is blocked on us, so we
      // always respond.
      if (skipping_ && pipelined()) return;
      skipping_ = true;
      // Pop mirror entries we already have: branches starting there need no
      // transmission either (containment is ancestor-closed). An empty
      // mirror means everything the sender still holds is known here — stop
      // the whole synchronization.
      std::optional<UpdateId> target;
      while (!mirror_.empty()) {
        const UpdateId candidate = mirror_.back();
        mirror_.pop_back();
        if (!a_->contains(candidate)) {
          target = candidate;
          break;
        }
      }
      if (target.has_value()) {
        send(GraphMsg{.kind = GraphMsg::Kind::kSkipTo, .target = *target});
        ++skipto_msgs_;
      } else {
        send(GraphMsg{.kind = GraphMsg::Kind::kHalt});
        finished_ = true;
      }
      return;
    }
    skipping_ = false;
    if (!mirror_.empty() && mirror_.back() == n.id) mirror_.pop_back();
    a_->insert_raw(n);
    ++nodes_new_;
    new_node_ids_.push_back(n.id);
    op_bytes_ += opt_->ship_ops ? n.op_bytes : 0;
    if (n.rp != kNoParent && !a_->contains(n.rp)) mirror_.push_back(n.rp);
    ack();
  }

  std::uint64_t nodes_new() const { return nodes_new_; }
  std::vector<UpdateId> take_new_node_ids() { return std::move(new_node_ids_); }
  std::uint64_t nodes_redundant() const { return nodes_redundant_; }
  std::uint64_t skipto_msgs() const { return skipto_msgs_; }
  std::uint64_t op_bytes() const { return op_bytes_; }
  std::uint64_t acks() const { return acks_; }

 private:
  void ack() {
    if (pipelined() || finished_) return;
    send(GraphMsg{.kind = GraphMsg::Kind::kAck});
    ++acks_;
  }

  CausalGraph* a_;
  std::vector<UpdateId> mirror_;  // s' of Alg 5
  std::vector<UpdateId> new_node_ids_;
  bool skipping_{false};
  bool finished_{false};
  std::uint64_t nodes_new_{0};
  std::uint64_t nodes_redundant_{0};
  std::uint64_t nodes_after_halt_{0};
  std::uint64_t skipto_msgs_{0};
  std::uint64_t op_bytes_{0};
  std::uint64_t acks_{0};
};

void install_framing(sim::FrameDuplex<GraphMsg>& duplex, bool ship_ops) {
  for (sim::FrameLink<GraphMsg>* l : {&duplex.a_to_b(), &duplex.b_to_a()}) {
    l->set_frame_sizer([ship_ops](const std::vector<GraphMsg>& msgs) {
      return graph_frame_wire_bytes(msgs, ship_ops);
    });
    l->set_msg_sizer(
        [ship_ops](const GraphMsg& m) { return graph_frame_wire_bytes_single(m, ship_ops); });
    l->set_flush_after([](const GraphMsg& m) { return m.kind != GraphMsg::Kind::kNode; });
  }
}

void harvest_framing(sim::EventLoop& loop, sim::FrameDuplex<GraphMsg>& duplex,
                     std::uint64_t events_before, GraphSyncReport& r) {
  duplex.b_to_a().close_frame();
  duplex.a_to_b().close_frame();
  r.frames_fwd = duplex.b_to_a().stats().frames;
  r.frames_rev = duplex.a_to_b().stats().frames;
  r.framed_bytes_fwd = duplex.b_to_a().stats().framed_wire_bytes;
  r.framed_bytes_rev = duplex.a_to_b().stats().framed_wire_bytes;
  r.loop_events = loop.executed_events() - events_before;
}

}  // namespace

GraphSyncReport sync_graph(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                           const GraphSyncOptions& opt) {
  const vv::Ordering rel = a.compare(b);
  sim::FrameDuplex<GraphMsg> duplex(&loop, opt.net);
  install_framing(duplex, opt.ship_ops);
  GraphSender sender(&loop, &duplex.b_to_a(), &opt, &b);
  GraphReceiver receiver(&loop, &duplex.a_to_b(), &opt, &a);
  duplex.b_to_a().set_receiver([&receiver](const GraphMsg& m) { receiver.on_message(m); });
  duplex.a_to_b().set_receiver([&sender](const GraphMsg& m) { sender.on_message(m); });
  const sim::Time t0 = loop.now();
  const std::uint64_t ev0 = loop.executed_events();
  loop.schedule(t0, [&sender] { sender.start(); });
  const sim::Time t_end = loop.run();

  GraphSyncReport r;
  harvest_framing(loop, duplex, ev0, r);
  r.initial_relation = rel;
  r.bits_fwd = duplex.b_to_a().stats().model_bits;
  r.bits_rev = duplex.a_to_b().stats().model_bits;
  r.bytes_fwd = duplex.b_to_a().stats().wire_bytes;
  r.bytes_rev = duplex.a_to_b().stats().wire_bytes;
  r.msgs_fwd = duplex.b_to_a().stats().messages;
  r.msgs_rev = duplex.a_to_b().stats().messages;
  r.nodes_sent = sender.nodes_sent();
  r.nodes_new = receiver.nodes_new();
  r.new_node_ids = receiver.take_new_node_ids();
  r.nodes_redundant = receiver.nodes_redundant();
  r.skipto_msgs = receiver.skipto_msgs();
  r.op_bytes_shipped = receiver.op_bytes();
  r.ack_msgs = receiver.acks();
  r.duration = t_end - t0;
  return r;
}

GraphSyncReport sync_graph_full(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                                const GraphSyncOptions& opt) {
  const vv::Ordering rel = a.compare(b);
  sim::FrameDuplex<GraphMsg> duplex(&loop, opt.net);
  install_framing(duplex, opt.ship_ops);
  std::uint64_t nodes_new = 0;
  std::uint64_t nodes_redundant = 0;
  std::uint64_t op_bytes = 0;
  std::vector<UpdateId> new_ids;
  duplex.b_to_a().set_receiver([&](const GraphMsg& m) {
    if (m.kind != GraphMsg::Kind::kNode) return;
    if (a.contains(m.node.id)) {
      ++nodes_redundant;
    } else {
      a.insert_raw(m.node);
      ++nodes_new;
      new_ids.push_back(m.node.id);
      op_bytes += opt.ship_ops ? m.node.op_bytes : 0;
    }
  });
  duplex.a_to_b().set_receiver([](const GraphMsg&) {});

  // Deterministic order for reproducibility.
  std::vector<Node> nodes = b.all_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](const Node& x, const Node& y) { return x.id < y.id; });
  const sim::Time t0 = loop.now();
  const std::uint64_t ev0 = loop.executed_events();
  loop.schedule(t0, [&duplex, nodes = std::move(nodes), &opt] {
    for (const Node& n : nodes) {
      GraphMsg m;
      m.kind = GraphMsg::Kind::kNode;
      m.node = n;
      std::uint64_t bytes = graph_msg_wire_bytes(m);
      if (opt.ship_ops) bytes += n.op_bytes;
      duplex.b_to_a().send(m, graph_msg_model_bits(opt.cost, m), bytes);
    }
    GraphMsg halt{.kind = GraphMsg::Kind::kHalt};
    duplex.b_to_a().send(halt, graph_msg_model_bits(opt.cost, halt),
                         graph_msg_wire_bytes(halt));
  });
  const sim::Time t_end = loop.run();

  GraphSyncReport r;
  harvest_framing(loop, duplex, ev0, r);
  r.initial_relation = rel;
  r.bits_fwd = duplex.b_to_a().stats().model_bits;
  r.bytes_fwd = duplex.b_to_a().stats().wire_bytes;
  r.msgs_fwd = duplex.b_to_a().stats().messages;
  r.nodes_sent = b.node_count();
  r.nodes_new = nodes_new;
  r.new_node_ids = std::move(new_ids);
  r.nodes_redundant = nodes_redundant;
  r.op_bytes_shipped = op_bytes;
  r.duration = t_end - t0;
  return r;
}

}  // namespace optrep::graph
