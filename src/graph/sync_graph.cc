#include "graph/sync_graph.h"

#include <algorithm>
#include <vector>

#include "vv/core_driver.h"
#include "vv/frame_codec.h"

namespace optrep::graph {

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

// One graph session's transport: the framed duplex with the graph frame
// sizers and flush rule, and the CoreDriver's wiring (vv/core_driver.h).
struct GraphWiring {
  GraphWiring(sim::EventLoop& loop, const GraphSyncOptions& opt)
      : duplex(&loop, opt.net), loop_(&loop), opt_(&opt) {
    for (sim::FrameLink<GraphMsg>* l : {&duplex.a_to_b(), &duplex.b_to_a()}) {
      l->set_frame_sizer([ship_ops = opt.ship_ops](const std::vector<GraphMsg>& msgs) {
        return graph_frame_wire_bytes(msgs, ship_ops);
      });
      l->set_msg_sizer([ship_ops = opt.ship_ops](const GraphMsg& m) {
        return graph_frame_wire_bytes_single(m, ship_ops);
      });
      l->set_flush_after([](const GraphMsg& m) { return m.kind != GraphMsg::Kind::kNode; });
    }
  }

  sim::EventLoop* loop() const { return loop_; }

  vv::SendSize size(const GraphMsg& m) const {
    if (m.kind == GraphMsg::Kind::kAck && opt_->mode == vv::TransferMode::kIdeal) return {};
    const bool payload = m.kind == GraphMsg::Kind::kNode && opt_->ship_ops;
    return {graph_msg_model_bits(opt_->cost, m),
            graph_msg_wire_bytes(m) + (payload ? m.node.op_bytes : 0)};
  }

  // Graph senders never speculate, and graph cores emit no trace actions.
  vv::protocol::TailView tail(const GraphMsg&, const sim::FrameLink<GraphMsg>&) const {
    return {};
  }
  void trace(vv::protocol::ActionType, const GraphMsg&) {}

  sim::FrameDuplex<GraphMsg> duplex;  // a_to_b: receiver→sender, b_to_a: sender→receiver
  sim::EventLoop* loop_;
  const GraphSyncOptions* opt_;
};

// The one graph session runner: drives a sender core (hosting b) and a
// receiver core (joining into a) over a fresh framed duplex until the loop
// quiesces, then builds the report.
template <class SenderCore, class ReceiverCore>
GraphSyncReport run_graph_session(sim::EventLoop& loop, const GraphSyncOptions& opt,
                                  vv::Ordering rel, SenderCore sender_core,
                                  ReceiverCore receiver_core) {
  GraphWiring w(loop, opt);
  sim::FrameLink<GraphMsg>& fwd = w.duplex.b_to_a();
  sim::FrameLink<GraphMsg>& rev = w.duplex.a_to_b();
  vv::CoreDriver<GraphMsg, SenderCore, GraphWiring> sender(&w, &fwd,
                                                           std::move(sender_core));
  vv::CoreDriver<GraphMsg, ReceiverCore, GraphWiring> receiver(&w, &rev,
                                                               std::move(receiver_core));
  fwd.set_receiver([&receiver](const GraphMsg& m) { receiver.on_message(m); });
  rev.set_receiver([&sender](const GraphMsg& m) { sender.on_message(m); });
  const sim::Time t0 = loop.now();
  const std::uint64_t ev0 = loop.executed_events();
  loop.schedule(t0, [&sender] { sender.start(); });
  const sim::Time t_end = loop.run();

  fwd.close_frame();
  rev.close_frame();
  const protocol::GraphReceiverCounters& rc = receiver.core().counters();
  GraphSyncReport r;
  r.initial_relation = rel;
  r.fwd = fwd.stats();
  r.rev = rev.stats();
  r.loop_events = loop.executed_events() - ev0;
  r.nodes_sent = sender.core().nodes_sent();
  r.nodes_new = rc.nodes_new;
  r.nodes_redundant = rc.nodes_redundant;
  r.skipto_msgs = rc.skipto_msgs;
  r.op_bytes_shipped = rc.op_bytes;
  r.ack_msgs = rc.acks;
  r.new_node_ids = receiver.core().take_new_node_ids();
  r.duration = t_end - t0;
  return r;
}

}  // namespace

GraphSyncReport sync_graph(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                           const GraphSyncOptions& opt) {
  const bool pipelined = opt.mode == vv::TransferMode::kPipelined;
  return run_graph_session(loop, opt, a.compare(b),
                           protocol::GraphSenderCore(pipelined, &b),
                           protocol::GraphReceiverCore(pipelined, &a, opt.ship_ops));
}

GraphSyncReport sync_graph_full(sim::EventLoop& loop, CausalGraph& a, const CausalGraph& b,
                                const GraphSyncOptions& opt) {
  // Deterministic order for reproducibility.
  std::vector<Node> nodes = b.all_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](const Node& x, const Node& y) { return x.id < y.id; });
  return run_graph_session(loop, opt, a.compare(b),
                           protocol::GraphBaselineSenderCore(&nodes),
                           protocol::GraphBaselineReceiverCore(&a, opt.ship_ops));
}

}  // namespace optrep::graph
