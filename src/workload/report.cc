#include "workload/report.h"

#include "obs/export.h"

namespace optrep::wl {

namespace {

std::string_view to_string(vv::TransferMode m) {
  switch (m) {
    case vv::TransferMode::kPipelined: return "pipelined";
    case vv::TransferMode::kStopAndWait: return "saw";
    case vv::TransferMode::kIdeal: return "ideal";
  }
  return "?";
}

void write_workload(obs::JsonWriter& w, const Trace& trace) {
  const GeneratorConfig& g = trace.config;
  w.key("workload").begin_object();
  w.field("scenario", trace.scenario);
  w.field("sites", std::uint64_t{trace.n_sites});
  w.field("objects", std::uint64_t{trace.n_objects});
  w.field("steps", std::uint64_t{g.steps});
  w.field("update_prob", g.update_prob);
  w.field("topology", wl::to_string(g.topology));
  w.field("locality", g.locality);
  w.field("seed", g.seed);
  w.end_object();
}

void write_run_stats(obs::JsonWriter& w, const RunStats& s) {
  w.key("run").begin_object();
  w.field("updates", s.updates);
  w.field("syncs", s.syncs);
  w.field("skipped", s.skipped);
  w.field("conflicts", s.conflicts);
  w.field("anti_entropy_rounds", std::uint64_t{s.anti_entropy_rounds});
  w.field("eventually_consistent", s.eventually_consistent);
  w.end_object();
}

void write_metrics_field(obs::JsonWriter& w, const obs::Registry& reg) {
  w.key("metrics");
  obs::write_metrics(w, reg);
}

// Fault-injection tags + recovery totals. Emitted only when faults are
// configured, so lossless reports stay byte-identical to earlier schemas.
void write_faults(obs::JsonWriter& w, const sim::NetConfig& net, std::uint64_t retries,
                  std::uint64_t sync_failures, std::uint64_t faults_injected,
                  std::uint64_t recovery_bits) {
  if (!net.faults.enabled()) return;
  const auto& f = net.faults;
  w.key("faults").begin_object();
  w.field("loss", f.drop);
  w.field("dup", f.duplicate);
  w.field("reorder", f.reorder);
  w.field("corrupt", f.corrupt);
  w.field("fault_seed", f.seed);
  w.field("injected", faults_injected);
  w.field("retries", retries);
  w.field("sync_failures", sync_failures);
  w.field("recovery_bits", recovery_bits);
  w.end_object();
}

}  // namespace

std::string sync_report_to_json(const vv::SyncReport& r, vv::VectorKind kind,
                                const CostModel& cm, obs::Registry* bound_sink) {
  const bool ok = vv::within_table2_bound(cm, kind, r);
  if (!ok && bound_sink != nullptr) bound_sink->counter("obs.bound_violations").inc();
  obs::JsonWriter w;
  w.begin_object();
  w.field("kind", vv::to_string(kind));
  w.key("report").begin_object();
  w.field("initial_relation", vv::to_string(r.initial_relation));
  w.field("bits_fwd", r.fwd.model_bits);
  w.field("bits_rev", r.rev.model_bits);
  w.field("bytes_fwd", r.fwd.wire_bytes);
  w.field("bytes_rev", r.rev.wire_bytes);
  w.field("msgs_fwd", r.fwd.messages);
  w.field("msgs_rev", r.rev.messages);
  w.field("elems_sent", r.elems_sent);
  w.field("elems_applied", r.elems_applied);
  w.field("elems_redundant", r.elems_redundant);
  w.field("elems_straggler", r.elems_straggler);
  w.field("elems_after_halt", r.elems_after_halt);
  w.field("skip_msgs", r.skip_msgs);
  w.field("segments_skipped", r.segments_skipped);
  w.field("ack_msgs", r.ack_msgs);
  w.field("duration", r.duration);
  w.field("receiver_done_at", r.receiver_done_at);
  w.end_object();
  w.field("table2_upper_bound_bits", vv::table2_upper_bound_bits(cm, kind));
  w.field("within_table2_bound", ok);
  w.end_object();
  return w.take();
}

std::string state_run_report_json(const repl::StateSystem& sys, const Trace& trace,
                                  const RunStats& stats) {
  const auto& cfg = sys.config();
  const auto& t = sys.totals();
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "optrep.run/v1");
  w.field("command", "state");
  w.field("kind", vv::to_string(cfg.kind));
  w.field("mode", to_string(cfg.mode));
  w.field("policy", cfg.policy == repl::ResolutionPolicy::kManual ? "manual" : "automatic");
  write_workload(w, trace);
  write_run_stats(w, stats);
  w.key("totals").begin_object();
  w.field("sessions", t.sessions);
  w.field("bits", t.bits);
  w.field("bytes", t.bytes);
  w.field("msgs", t.msgs);
  w.field("payload_bytes", t.payload_bytes);
  w.field("elems_sent", t.elems_sent);
  w.field("elems_applied", t.elems_applied);
  w.field("elems_redundant", t.elems_redundant);
  w.field("segments_skipped", t.skips);
  w.field("conflicts_detected", t.conflicts_detected);
  w.field("reconciliations", t.reconciliations);
  w.end_object();
  w.key("table2").begin_object();
  w.field("upper_bound_bits_per_session", vv::table2_upper_bound_bits(cfg.cost, cfg.kind));
  w.field("bound_violations", t.bound_violations);
  w.end_object();
  const repl::StateSystem::MemoryStats mem = sys.memory_stats();
  w.key("memory").begin_object();
  w.field("replicas", mem.replicas);
  w.field("vector_bytes", mem.vector_bytes);
  w.field("index_bytes", mem.index_bytes);
  w.end_object();
  write_faults(w, cfg.net, t.retries, t.sync_failures, t.faults_injected, t.recovery_bits);
  write_metrics_field(w, sys.metrics());
  w.end_object();
  return w.take();
}

std::string op_run_report_json(const repl::OpSystem& sys, const Trace& trace,
                               const RunStats& stats) {
  const auto& cfg = sys.config();
  const auto& t = sys.totals();
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "optrep.run/v1");
  w.field("command", "op");
  w.field("algo", cfg.use_incremental ? "syncg" : "full");
  w.field("mode", to_string(cfg.mode));
  w.field("op_log_limit", std::uint64_t{cfg.op_log_limit});
  write_workload(w, trace);
  write_run_stats(w, stats);
  w.key("totals").begin_object();
  w.field("sessions", t.sessions);
  w.field("bits", t.bits);
  w.field("bytes", t.bytes);
  w.field("nodes_sent", t.nodes_sent);
  w.field("nodes_redundant", t.nodes_redundant);
  w.field("op_bytes", t.op_bytes);
  w.field("reconciliations", t.reconciliations);
  w.field("state_fallbacks", t.state_fallbacks);
  w.field("state_fallback_bytes", t.state_fallback_bytes);
  w.end_object();
  write_metrics_field(w, sys.metrics());
  w.end_object();
  return w.take();
}

std::string records_run_report_json(const repl::RecordSystem& sys,
                                    const RecordsRunTags& tags) {
  const auto& cfg = sys.config();
  const auto& t = sys.totals();
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "optrep.run/v1");
  w.field("command", "records");
  w.field("kind", vv::to_string(cfg.kind));
  w.field("mode", to_string(cfg.mode));
  w.field("policy", cfg.policy == repl::SemanticPolicy::kFlag ? "flag" : "lww");
  w.key("workload").begin_object();
  w.field("sites", std::uint64_t{tags.sites});
  w.field("steps", std::uint64_t{tags.steps});
  w.field("update_prob", tags.update_prob);
  w.field("overlap", tags.overlap);
  w.field("key_pool", std::uint64_t{tags.key_pool});
  w.field("seed", tags.seed);
  w.end_object();
  w.key("totals").begin_object();
  w.field("sessions", t.sessions);
  w.field("bits", t.bits);
  w.field("syntactic_conflicts", t.syntactic_conflicts);
  w.field("syntactic_only", t.syntactic_only);
  w.field("semantic_conflicts", t.semantic_conflicts);
  w.field("records_merged", t.records_merged);
  w.field("flagged_records", t.flagged_records);
  w.end_object();
  w.key("table2").begin_object();
  w.field("upper_bound_bits_per_session", vv::table2_upper_bound_bits(cfg.cost, cfg.kind));
  w.field("bound_violations", t.bound_violations);
  w.end_object();
  write_faults(w, cfg.net, t.retries, t.sync_failures, t.faults_injected, t.recovery_bits);
  write_metrics_field(w, sys.metrics());
  w.end_object();
  return w.take();
}

}  // namespace optrep::wl
