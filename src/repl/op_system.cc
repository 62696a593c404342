#include "repl/op_system.h"

#include <algorithm>

#include "obs/prof.h"
#include "repl/vector_sync.h"

namespace optrep::repl {

void OpSystem::create_object(SiteId site, ObjectId obj, std::string content) {
  OPTREP_CHECK_MSG(!replicas_.has(site, obj), "object already exists on site");
  OpReplica& r = replicas_.get_or_create(site, obj);
  const UpdateId op = fresh_op(site, obj);
  r.graph.create(op, static_cast<std::uint32_t>(content.size()));
  contents_[obj][op] = std::move(content);
  retain(r, op);
  causal_origin(obj, op);
}

void OpSystem::update(SiteId site, ObjectId obj, std::string content) {
  OpReplica& r = replicas_.at(site, obj);
  const UpdateId op = fresh_op(site, obj);
  r.graph.append(op, static_cast<std::uint32_t>(content.size()));
  contents_[obj][op] = std::move(content);
  retain(r, op);
  causal_origin(obj, op);
}

OpSyncOutcome OpSystem::sync(SiteId dst, SiteId src, ObjectId obj) {
  OPTREP_SPAN("op.sync");
  OPTREP_CHECK_MSG(dst != src, "a site cannot synchronize with itself");
  OpSyncOutcome out;
  out.action = OpSyncOutcome::Action::kSkipped;
  if (!replicas_.has(src, obj)) return out;
  const OpReplica& sender = replicas_.at(src, obj);
  OpReplica& receiver = replicas_.get_or_create(dst, obj);  // created empty if absent

  const vv::Ordering rel = receiver.graph.compare(sender.graph);
  out.relation = rel;
  if (rel == vv::Ordering::kEqual || rel == vv::Ordering::kAfter) {
    out.action = OpSyncOutcome::Action::kNone;
    return out;
  }

  graph::GraphSyncOptions opt;
  opt.mode = cfg_.mode;
  opt.net = cfg_.net;
  opt.cost = cfg_.cost;
  // With a bounded log, graph metadata and operation payloads travel
  // separately: the payload fetch happens after the graph sync reveals which
  // operations are missing (and whether the sender still has them).
  opt.ship_ops = cfg_.op_log_limit == 0;
  out.report = cfg_.use_incremental
                   ? graph::sync_graph(loop_, receiver.graph, sender.graph, opt)
                   : graph::sync_graph_full(loop_, receiver.graph, sender.graph, opt);

  if (cfg_.op_log_limit > 0) {
    // Hybrid transfer: can the sender still supply every new payload? Merge
    // nodes carry no user content and never force a fallback.
    bool all_available = true;
    std::uint64_t needed_bytes = 0;
    for (const UpdateId& id : out.report.new_node_ids) {
      const graph::Node* n = receiver.graph.find(id);
      if (n == nullptr || n->op_bytes == 0) continue;
      needed_bytes += n->op_bytes;
      if (!sender.log.contains(id)) {
        all_available = false;
        break;
      }
    }
    if (all_available) {
      out.report.op_bytes_shipped = needed_bytes;  // per-operation fetch
      for (const UpdateId& id : out.report.new_node_ids) retain(receiver, id);
    } else {
      // §6/§1 [1, §7.2]: the replica is too old for the retained history —
      // ship the entire object state instead of individual operations.
      out.state_fallback = true;
      out.state_fallback_bytes = sender.graph.total_op_bytes();
      receiver.log_order = sender.log_order;
      receiver.log = sender.log;
      ++totals_.state_fallbacks;
      totals_.state_fallback_bytes += out.state_fallback_bytes;
    }
  }

  if (cfg_.causal != nullptr) {
    // new_node_ids (insertion order) are exactly the update identities this
    // session delivered; sorted for deterministic emission order. Operation
    // transfer has no vv session span, so delivers carry span 0.
    std::vector<UpdateId> fresh(out.report.new_node_ids.begin(),
                                out.report.new_node_ids.end());
    std::sort(fresh.begin(), fresh.end());
    for (const UpdateId& id : fresh) {
      cfg_.causal->deliver(loop_.now(), obj, id.site, id.seq, /*span=*/0, src, dst);
      causal_converge_check(obj, id);
    }
  }

  if (rel == vv::Ordering::kBefore) {
    receiver.graph.set_sink(sender.graph.sink());
    out.action = OpSyncOutcome::Action::kFastForwarded;
  } else {
    // Concurrent: reconciliation executes a merge operation (§6.1: "conflict
    // reconciliation is invoked and a new node is added as the new sink").
    const UpdateId merge_op = fresh_op(dst, obj);
    receiver.graph.merge(merge_op, sender.graph.sink());
    contents_[obj][merge_op] = "";  // merges carry no user content here
    retain(receiver, merge_op);
    causal_origin(obj, merge_op);
    ++totals_.reconciliations;
    out.action = OpSyncOutcome::Action::kReconciled;
  }

  OPTREP_CHECK_MSG(receiver.graph.validate_closed(),
                   "graph not closed after synchronization");
  for (const graph::Node& n : sender.graph.all_nodes()) {
    OPTREP_CHECK_MSG(receiver.graph.contains(n.id), "union is missing sender nodes");
  }

  totals_.sessions += 1;
  totals_.bits += out.report.total_bits();
  totals_.bytes += out.report.fwd.wire_bytes + out.report.rev.wire_bytes;
  totals_.frames += out.report.fwd.frames + out.report.rev.frames;
  totals_.framed_bytes +=
      out.report.fwd.framed_wire_bytes + out.report.rev.framed_wire_bytes;
  totals_.nodes_sent += out.report.nodes_sent;
  totals_.nodes_redundant += out.report.nodes_redundant;
  totals_.op_bytes += out.report.op_bytes_shipped;
  metrics_.histogram("op.session_bits").record(out.report.total_bits());
  publish_metrics();
  return out;
}

void OpSystem::publish_metrics() {
  metrics_.counter("op.sessions").set(totals_.sessions);
  metrics_.counter("op.bits").set(totals_.bits);
  metrics_.counter("op.bytes").set(totals_.bytes);
  metrics_.counter("op.frames").set(totals_.frames);
  metrics_.counter("op.framed_bytes").set(totals_.framed_bytes);
  metrics_.counter("op.nodes_sent").set(totals_.nodes_sent);
  metrics_.counter("op.nodes_redundant").set(totals_.nodes_redundant);
  metrics_.counter("op.op_bytes").set(totals_.op_bytes);
  metrics_.counter("op.reconciliations").set(totals_.reconciliations);
  metrics_.counter("op.state_fallbacks").set(totals_.state_fallbacks);
  metrics_.counter("op.state_fallback_bytes").set(totals_.state_fallback_bytes);
  publish_loop_gauges(metrics_, loop_);
  metrics_.gauge("repl.divergence").set(static_cast<std::int64_t>(divergence()));
}

std::uint64_t OpSystem::divergence() const {
  std::uint64_t d = 0;
  replicas_.for_each([&](SiteId, ObjectId obj, const OpReplica& r) {
    d += contents_.at(obj).size() - r.graph.node_count();
  });
  return d;
}

std::string OpSystem::materialize(SiteId site, ObjectId obj) const {
  const OpReplica& r = replica(site, obj);
  auto cit = contents_.find(obj);
  OPTREP_CHECK(cit != contents_.end());
  // Graph nodes in id order form a deterministic linearization compatible
  // across replicas holding the same node set (ops here are commutative
  // inserts; richer semantics would topo-sort with id tie-breaks).
  std::vector<graph::Node> nodes = r.graph.all_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](const graph::Node& a, const graph::Node& b) { return a.id < b.id; });
  std::string out;
  for (const graph::Node& n : nodes) {
    auto oit = cit->second.find(n.id);
    if (oit != cit->second.end() && !oit->second.empty()) {
      out += oit->second;
      out += '\n';
    }
  }
  return out;
}

UpdateId OpSystem::fresh_op(SiteId site, ObjectId obj) {
  return UpdateId{site, ++seq_[site][obj]};
}

void OpSystem::causal_origin(ObjectId obj, const UpdateId& op) {
  if (cfg_.causal == nullptr) return;
  cfg_.causal->origin(loop_.now(), obj, op.site, op.seq);
  causal_converge_check(obj, op);  // single-host objects converge at once
}

void OpSystem::causal_converge_check(ObjectId obj, const UpdateId& op) {
  // Coverage of an operation only changes when some replica absorbs it, so a
  // check at every origin/deliver closes each trace exactly when the
  // operation stops diverging. Graphs are ancestor-closed, so containment of
  // the node id is exact coverage.
  if (replicas_.all_cover(obj, [&](const OpReplica& r) { return r.graph.contains(op); })) {
    cfg_.causal->converge(loop_.now(), obj, op.site, op.seq);
  }
}

void OpSystem::retain(OpReplica& r, UpdateId op) {
  if (cfg_.op_log_limit == 0) return;  // unlimited history: no bookkeeping
  if (!r.log.insert(op).second) return;
  r.log_order.push_back(op);
  while (r.log_order.size() > cfg_.op_log_limit) {
    r.log.erase(r.log_order.front());
    r.log_order.pop_front();
  }
}

}  // namespace optrep::repl
