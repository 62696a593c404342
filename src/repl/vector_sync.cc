#include "repl/vector_sync.h"

#include "sim/fault_link.h"

namespace optrep::repl {

VectorSync::VectorSync(std::string_view prefix, vv::VectorKind kind, vv::TransferMode mode,
                       const sim::NetConfig& net, const CostModel& cost,
                       obs::Tracer* tracer, obs::FlightRecorder* recorder) {
  base_.kind = kind;
  base_.mode = mode;
  base_.net = net;
  base_.cost = cost;
  base_.tracer = tracer;
  base_.recorder = recorder;
  const std::string p(prefix);
  sessions_ = p + ".sessions";
  retries_ = p + ".retries";
  sync_failures_ = p + ".sync_failures";
  faults_injected_ = p + ".faults_injected";
  recovery_bits_ = p + ".recovery_bits";
}

vv::SyncReport VectorSync::transfer(sim::EventLoop& loop, vv::RotatingVector& a,
                                    const vv::RotatingVector& b, vv::Ordering rel,
                                    const Contact& c) const {
  vv::SyncOptions opt = base_;
  if (c.fault_salt != 0 && opt.net.faults.enabled()) {
    opt.net.faults.seed = sim::fault_stream_seed(opt.net.faults.seed, c.fault_salt);
  }
  opt.known_relation = rel;
  opt.trace_session = c.session;
  opt.metrics = c.metrics;
  opt.causal = c.causal;
  opt.src_site = c.src;
  opt.dst_site = c.dst;
  return vv::sync_with_recovery(loop, a, b, opt);
}

void VectorSync::account(const vv::SyncReport& r, SyncTotals& t, obs::Registry& metrics,
                         sim::Time now) const {
  t.sessions += 1;
  t.bits += r.total_bits();
  t.retries += r.retries;
  t.faults_injected += r.total_faults();
  t.recovery_bits += r.recovery_bits;
  if (!r.converged) ++t.sync_failures;
  if (!base_.net.faults.enabled() &&
      !vv::within_table2_bound(base_.cost, base_.kind, r)) {
    ++t.bound_violations;
    metrics.counter("obs.bound_violations").inc();
    if (base_.recorder != nullptr) base_.recorder->trigger("table2_bound_violation", now);
  }
}

void VectorSync::publish(obs::Registry& metrics, const SyncTotals& t,
                         const sim::EventLoop& loop) const {
  metrics.counter(sessions_).set(t.sessions);
  if (base_.net.faults.enabled()) {
    metrics.counter(retries_).set(t.retries);
    metrics.counter(sync_failures_).set(t.sync_failures);
    metrics.counter(faults_injected_).set(t.faults_injected);
    metrics.counter(recovery_bits_).set(t.recovery_bits);
  }
  publish_loop_gauges(metrics, loop);
}

void publish_loop_gauges(obs::Registry& metrics, const sim::EventLoop& loop) {
  metrics.gauge("sim.queue_depth").set(static_cast<std::int64_t>(loop.queue_depth()));
  metrics.gauge("sim.max_queue_depth").set(static_cast<std::int64_t>(loop.max_queue_depth()));
  metrics.gauge("sim.executed_events").set(static_cast<std::int64_t>(loop.executed_events()));
  metrics.gauge("sim.cancelled_events").set(static_cast<std::int64_t>(loop.cancelled_events()));
}

}  // namespace optrep::repl
