#include "repl/state_system.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/prof.h"

namespace optrep::repl {

StateSystem::StateSystem(Config cfg)
    : cfg_(cfg),
      vsync_("state", cfg_.kind, cfg_.mode, cfg_.net, cfg_.cost, cfg_.tracer, cfg_.recorder) {
  OPTREP_CHECK_MSG(cfg_.kind != vv::VectorKind::kBrv ||
                       cfg_.policy == ResolutionPolicy::kManual,
                   "BRV supports no conflict reconciliation (§3.1); use manual "
                   "resolution or CRV/SRV");
  if (cfg_.recorder != nullptr) cfg_.recorder->set_fault_seed(cfg_.net.faults.seed);
  if (cfg_.timeline != nullptr) {
    if (cfg_.timeline_every_s > 0) {
      cfg_.timeline->set_axis("time_s");
      loop_.set_time_sampler(cfg_.timeline_every_s, this, &StateSystem::time_sample_thunk);
    } else {
      cfg_.timeline->set_axis("sessions");
    }
  }
}

void StateSystem::create_object(SiteId site, ObjectId obj, std::string entry) {
  OPTREP_CHECK_MSG(!replicas_.has(site, obj), "object already exists on site");
  const UpdateId u = apply_update(replicas_.get_or_create(site, obj), site, std::move(entry));
  emit_effects(loop_.now(), obj, {{}, u});
}

void StateSystem::update(SiteId site, ObjectId obj, std::string entry) {
  OPTREP_SPAN("state.update");
  StateReplica& r = replicas_.at(site, obj);
  OPTREP_CHECK_MSG(!r.conflicted, "update on an excluded (conflicted) replica");
  const UpdateId u = apply_update(r, site, std::move(entry));
  emit_effects(loop_.now(), obj, {{}, u});
}

SyncOutcome StateSystem::sync(SiteId dst, SiteId src, ObjectId obj) {
  OPTREP_SPAN("state.sync");
  OPTREP_CHECK_MSG(dst != src, "a site cannot synchronize with itself");
  SyncOutcome out;
  out.action = SyncOutcome::Action::kSkipped;
  StateReplica* sender = replicas_.find(src, obj);
  if (sender == nullptr || sender->conflicted) return out;
  StateReplica& receiver = replicas_.get_or_create(dst, obj);  // created empty if absent
  SessionEffects fx;
  out = sync_pair(receiver, *sender, loop_,
                  {dst, src, totals_.sessions + 1, &metrics_, cfg_.causal}, fx);
  emit_effects(loop_.now(), obj, fx, src, dst, out.report.causal_span);
  finish_session(out);
  publish_metrics();
  if (cfg_.timeline != nullptr && cfg_.timeline_every_s == 0 &&
      cfg_.timeline_every > 0 && totals_.sessions % cfg_.timeline_every == 0) {
    sample_timeline();
  }
  return out;
}

SyncOutcome StateSystem::sync_pair(StateReplica& receiver, StateReplica& sender,
                                   sim::EventLoop& loop, const VectorSync::Contact& c,
                                   SessionEffects& fx) {
  const bool manual = cfg_.policy == ResolutionPolicy::kManual;
  const VectorSync::Outcome step =
      vsync_.run(loop, receiver.vector, sender.vector, c, [&](vv::Ordering rel) {
        // §2.1: under manual resolution conflicting replicas leave the
        // system until resolved; nothing is transferred.
        return !(manual && rel == vv::Ordering::kConcurrent);
      });
  SyncOutcome out;
  out.relation = step.relation;
  out.report = step.report;
  const bool concurrent = step.relation == vv::Ordering::kConcurrent;

  if (cfg_.check_oracle) {
    // Ground truth: causal relation by oracle-vector dominance.
    OPTREP_CHECK_MSG(step.relation == receiver.oracle_vector.compare(sender.oracle_vector),
                     "COMPARE disagrees with ground-truth causality");
  }

  if (!step.merged) {
    if (concurrent && manual) {
      receiver.conflicted = true;
      sender.conflicted = true;
      out.action = SyncOutcome::Action::kConflictHeld;
    } else if (!step.report.converged) {
      out.action = SyncOutcome::Action::kFailed;
    } else {
      // Nothing to pull. (A real system might push back; traces model that
      // as a separate sync in the other direction.)
      out.action = step.relation == vv::Ordering::kEqual ? SyncOutcome::Action::kNone
                                                         : SyncOutcome::Action::kPushedBack;
    }
  } else {
    // ≺ pulls the sender's state; ‖ reconciles automatically: payload merge,
    // then the mandated local update on the receiving site ([11 §C], §2.2).
    for (const auto& e : sender.data.entries) out.payload_bytes += e.size();
    if (c.causal != nullptr) {
      // The update ids the receiver is about to learn — per site, the range
      // (receiver[i], sender[i]] — in (site, seq) order.
      for (const auto& [site, top] : sender.oracle_vector.elements()) {
        for (std::uint64_t s = receiver.oracle_vector.value(site) + 1; s <= top; ++s) {
          fx.fresh.push_back({site, s});
        }
      }
      std::sort(fx.fresh.begin(), fx.fresh.end());
    }
    receiver.oracle_vector.join(sender.oracle_vector);
    if (!concurrent) {
      receiver.data = sender.data;  // state transfer overwrites the replica
      out.action = SyncOutcome::Action::kPulled;
    } else {
      receiver.data.merge(sender.data);
      if (cfg_.check_oracle) check_replica(receiver);
      // The separate post-reconciliation update (metadata only: the merged
      // payload is the new version's content).
      receiver.vector.record_update(c.dst);
      receiver.oracle_vector.increment(c.dst);
      fx.origin = UpdateId{c.dst, receiver.oracle_vector.value(c.dst)};
      out.action = SyncOutcome::Action::kReconciled;
    }
  }

  if (cfg_.check_oracle) check_replica(receiver);
  return out;
}

void StateSystem::finish_session(const SyncOutcome& out) {
  vsync_.account(out.report, totals_, metrics_, loop_.now());
  totals_.bytes += out.report.total_bytes();
  totals_.msgs += out.report.fwd.messages + out.report.rev.messages;
  totals_.frames += out.report.total_frames();
  totals_.framed_bytes += out.report.total_framed_bytes();
  totals_.payload_bytes += out.payload_bytes;
  totals_.elems_sent += out.report.elems_sent;
  totals_.elems_applied += out.report.elems_applied;
  totals_.elems_redundant += out.report.elems_redundant;
  totals_.skips += out.report.segments_skipped;
  if (out.relation == vv::Ordering::kConcurrent) ++totals_.conflicts_detected;
  if (out.action == SyncOutcome::Action::kReconciled) ++totals_.reconciliations;
}

std::vector<SyncOutcome> StateSystem::run_batch(const std::vector<BatchEvent>& events,
                                                rt::ThreadPool& pool,
                                                BatchStats* stats) {
  OPTREP_SPAN("state.run_batch");
  OPTREP_CHECK_MSG(cfg_.policy == ResolutionPolicy::kAutomatic,
                   "run_batch requires automatic resolution: a manual conflict "
                   "hold mutates the sender, which wave read-sharing forbids");
  OPTREP_CHECK_MSG(cfg_.tracer == nullptr && cfg_.recorder == nullptr &&
                       cfg_.timeline == nullptr,
                   "run_batch: tracer/recorder/timeline are sequential "
                   "per-session instruments; use the sequential driver");
  batch_ran_ = true;

  // Replica key: high bit keeps every key nonzero (0 is plan_waves' "no read"
  // sentinel and site 0 / object 0 would otherwise collide with it).
  const auto key = [](SiteId s, ObjectId o) {
    return (std::uint64_t{1} << 63) | (std::uint64_t{s.value} << 32) |
           std::uint64_t{o.value};
  };

  // Shadow convergence state for causal tracing: host set and oracle vector
  // per replica, advanced at each event's spec-order COMMIT — exactly when a
  // sequential execution would advance the real state — so kConverge fires at
  // the same events it would sequentially. Snapshotted before prepare creates
  // the batch's receiver replicas (a replica becomes a host only when its
  // creating event commits).
  ReplicaMap<vv::VersionVector> shadow;
  if (cfg_.causal != nullptr) {
    replicas_.for_each([&](SiteId site, ObjectId o, const StateReplica& r) {
      shadow.get_or_create(site, o) = r.oracle_vector;
    });
  }

  // Prepare, pass 1 (spec order): validate presence against the evolving map
  // — replicas_ itself tracks which replicas exist "so far" because creations
  // happen here, in order — create every receiver replica, and derive the
  // wave items.
  std::vector<rt::WaveItem> items;
  items.reserve(events.size());
  for (const BatchEvent& ev : events) {
    switch (ev.type) {
      case BatchEvent::Type::kCreate:
        OPTREP_CHECK_MSG(!replicas_.has(ev.site, ev.obj), "object already exists on site");
        replicas_.get_or_create(ev.site, ev.obj);
        break;
      case BatchEvent::Type::kUpdate:
        OPTREP_CHECK_MSG(replicas_.has(ev.site, ev.obj),
                         "update without a replica: the driver injects the "
                         "creator sync first (see wl::run_state_parallel)");
        break;
      case BatchEvent::Type::kSync:
        OPTREP_CHECK_MSG(ev.site != ev.peer, "a site cannot synchronize with itself");
        OPTREP_CHECK_MSG(replicas_.has(ev.peer, ev.obj),
                         "sync from an absent sender: the driver filters (and "
                         "counts) such skips");
        replicas_.get_or_create(ev.site, ev.obj);  // receiver, created empty if absent
        break;
    }
    items.push_back({key(ev.site, ev.obj),
                     ev.type == BatchEvent::Type::kSync ? key(ev.peer, ev.obj)
                                                        : std::uint64_t{0}});
  }

  // Per-event batch state: the replicas resolved at prepare time, then the
  // session's result awaiting its spec-order commit.
  struct Slot {
    StateReplica* receiver{nullptr};
    StateReplica* sender{nullptr};  // kSync only
    SyncOutcome out;
    SessionEffects fx;
    double end_time{0};
    std::unique_ptr<obs::CausalTracer> scratch;
  };
  std::vector<Slot> slots(events.size());

  // Prepare, pass 2: all map entries now exist, so replica addresses are
  // stable (ReplicaMap never moves values) — resolve them once, and pin
  // vector capacity: concurrent optimistic readers tolerate slot recycling
  // but not element-array relocation (see vv::RotatingVector::reserve).
  std::unordered_set<const vv::RotatingVector*> touched;
  const auto pin = [&](SiteId site, ObjectId obj) {
    StateReplica& r = replicas_.at(site, obj);
    r.vector.reserve(cfg_.n_sites);
    touched.insert(&r.vector);
    return &r;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const BatchEvent& ev = events[i];
    slots[i].receiver = pin(ev.site, ev.obj);
    if (ev.type == BatchEvent::Type::kSync) slots[i].sender = pin(ev.peer, ev.obj);
  }
  const auto sum_olock = [&touched] {
    rt::OLock::Counters c;
    for (const vv::RotatingVector* v : touched) {
      const rt::OLock::Counters k = v->olock().counters();
      c.acquisitions += k.acquisitions;
      c.opt_retries += k.opt_retries;
      c.queue_waits += k.queue_waits;
    }
    return c;
  };
  const rt::OLock::Counters olock_before = sum_olock();

  // Scratch causal rings are sized for one whole session: ≤ 7 attempts
  // (default retry budget), each bounded by a few wire/apply events per site.
  const std::size_t scratch_cap =
      std::size_t{7} * (std::size_t{8} * cfg_.n_sites + 64);
  const std::uint64_t causal_seed =
      cfg_.causal != nullptr ? cfg_.causal->run_seed() : 0;

  const rt::WavePlan plan = rt::plan_waves(items);
  // Per-shard metric registries: a shard's sessions run sequentially, so no
  // locking; merged into metrics_ in shard order after the last wave (counter
  // and histogram merges add, so final counts equal a sequential run's).
  std::vector<obs::Registry> shard_metrics(plan.n_shards);

  const auto compute_one = [&](std::size_t i, std::size_t shard) {
    const BatchEvent& ev = events[i];
    Slot& res = slots[i];
    StateReplica& r = *res.receiver;
    if (ev.type != BatchEvent::Type::kSync) {
      rt::OLockGuard g(r.vector.olock());
      OPTREP_CHECK_MSG(!r.conflicted, "update on an excluded (conflicted) replica");
      res.fx.origin = apply_update(r, ev.site, ev.entry);
      return;
    }
    StateReplica& sender = *res.sender;
    if (cfg_.causal != nullptr) {
      res.scratch = std::make_unique<obs::CausalTracer>(causal_seed, scratch_cap);
    }
    sim::EventLoop loop;
    // The wave plan promises no writer touches the sender while this session
    // reads it; assert that with an optimistic read spanning the session.
    const std::uint64_t snap = sender.vector.olock().read_begin();
    {
      rt::OLockGuard g(r.vector.olock());
      const std::uint64_t spec_no = static_cast<std::uint64_t>(i) + 1;
      res.out = sync_pair(r, sender, loop,
                          {ev.site, ev.peer, spec_no, &shard_metrics[shard],
                           res.scratch.get(), /*fault_salt=*/spec_no},
                          res.fx);
    }
    OPTREP_CHECK_MSG(sender.vector.olock().read_validate(snap),
                     "wave invariant violated: a sender was mutated during a "
                     "parallel session");
    res.end_time = loop.now();
  };

  // Spec-order batch clock: every session ran on a fresh loop from t = 0, so
  // it starts where the previous event in spec order ended, as it would on
  // the shared loop, and its local times are shifted by that start.
  sim::Time clock = loop_.now();
  std::size_t wave_start = 0;
  for (const rt::WavePlan::Wave& wave : plan.waves) {
    pool.for_each_index(plan.n_shards, [&](std::size_t shard) {
      for (const std::uint32_t idx : wave.by_shard[shard]) {
        compute_one(idx, shard);
      }
    });
    // Commit in spec order (waves cover contiguous index ranges): session
    // accounting, then causal emission against the shared tracer — scratch
    // ring first (span ids rebased and times shifted by absorb), then the
    // deliver/origin and convergence events the sequential path would emit
    // inline.
    for (std::size_t i = wave_start; i < wave_start + wave.items; ++i) {
      const BatchEvent& ev = events[i];
      Slot& res = slots[i];
      if (ev.type == BatchEvent::Type::kSync) finish_session(res.out);
      const sim::Time start = clock;
      clock += res.end_time;
      if (cfg_.causal == nullptr) continue;
      vv::VersionVector& known = shadow.get_or_create(ev.site, ev.obj);
      std::uint64_t span = 0;
      if (res.scratch != nullptr) {
        const std::uint64_t offset = cfg_.causal->spans_opened();
        cfg_.causal->absorb(*res.scratch, start);
        span = res.out.report.causal_span == 0
                   ? 0
                   : res.out.report.causal_span + offset;
      }
      // fresh ascends per site past the receiver's value; the origin tops it.
      for (const UpdateId& u : res.fx.fresh) known.set(u.site, u.seq);
      if (res.fx.origin) known.set(res.fx.origin->site, res.fx.origin->seq);
      emit_effects(clock, ev.obj, res.fx, ev.peer, ev.site, span, &shadow);
    }
    wave_start += wave.items;
  }
  loop_.advance_to(clock);

  for (const obs::Registry& reg : shard_metrics) metrics_.merge_from(reg);
  const rt::OLock::Counters olock_after = sum_olock();
  rt::OLock::Counters delta;
  delta.acquisitions = olock_after.acquisitions - olock_before.acquisitions;
  delta.opt_retries = olock_after.opt_retries - olock_before.opt_retries;
  delta.queue_waits = olock_after.queue_waits - olock_before.queue_waits;
  olock_totals_.acquisitions += delta.acquisitions;
  olock_totals_.opt_retries += delta.opt_retries;
  olock_totals_.queue_waits += delta.queue_waits;
  publish_metrics();
  if (stats != nullptr) {
    stats->waves = plan.waves.size();
    stats->max_wave_items = plan.max_wave_items();
    stats->olock = delta;
  }

  std::vector<SyncOutcome> outs(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) outs[i] = std::move(slots[i].out);
  return outs;
}

std::uint64_t StateSystem::divergence() const {
  // Per-object element-wise supremum over every replica's vector.
  std::unordered_map<ObjectId, std::unordered_map<SiteId, std::uint64_t>> sup;
  replicas_.for_each([&](SiteId, ObjectId obj, const StateReplica& r) {
    auto& s = sup[obj];
    for (const auto& e : r.vector) {
      auto& v = s[e.site];
      if (e.value > v) v = e.value;
    }
  });
  std::uint64_t d = 0;
  replicas_.for_each([&](SiteId, ObjectId obj, const StateReplica& r) {
    for (const auto& [sid, v] : sup.at(obj)) {
      if (r.vector.value(sid) < v) ++d;
    }
    if (r.conflicted) ++d;
  });
  return d;
}

StateSystem::MemoryStats StateSystem::memory_stats() const {
  MemoryStats m;
  replicas_.for_each([&](SiteId, ObjectId, const StateReplica& r) {
    ++m.replicas;
    m.vector_bytes += r.vector.memory_bytes();
    m.index_bytes += r.vector.index_memory_bytes();
  });
  return m;
}

void StateSystem::sample_timeline() {
  if (cfg_.timeline == nullptr) return;
  if (totals_.sessions == sampled_at_sessions_) return;
  sampled_at_sessions_ = totals_.sessions;
  sample_timeline_at(cfg_.timeline_every_s > 0 ? loop_.now()
                                               : static_cast<double>(totals_.sessions));
}

void StateSystem::sample_timeline_at(double x) {
  metrics_.gauge("repl.divergence").set(static_cast<std::int64_t>(divergence()));
  const MemoryStats mem = memory_stats();
  metrics_.gauge("state.replicas").set(static_cast<std::int64_t>(mem.replicas));
  metrics_.gauge("state.vector_memory_bytes").set(static_cast<std::int64_t>(mem.vector_bytes));
  metrics_.gauge("state.index_memory_bytes").set(static_cast<std::int64_t>(mem.index_bytes));
  publish_metrics();
  cfg_.timeline->begin_sample(x);
  cfg_.timeline->sample_registry(metrics_);
}

void StateSystem::time_sample_thunk(void* ctx, sim::Time t) {
  static_cast<StateSystem*>(ctx)->sample_timeline_at(t);
}

void StateSystem::publish_metrics() {
  vsync_.publish(metrics_, totals_, loop_);
  metrics_.counter("state.frames").set(totals_.frames);
  metrics_.counter("state.framed_bytes").set(totals_.framed_bytes);
  metrics_.counter("state.payload_bytes").set(totals_.payload_bytes);
  metrics_.counter("state.conflicts_detected").set(totals_.conflicts_detected);
  metrics_.counter("state.reconciliations").set(totals_.reconciliations);
  if (batch_ran_) {
    metrics_.counter("rt.olock.acquisitions").set(olock_totals_.acquisitions);
    metrics_.counter("rt.olock.opt_retries").set(olock_totals_.opt_retries);
    metrics_.counter("rt.olock.queue_waits").set(olock_totals_.queue_waits);
  }
}

UpdateId StateSystem::apply_update(StateReplica& r, SiteId site, std::string entry) {
  r.data.entries.insert(std::move(entry));
  r.vector.record_update(site);
  r.oracle_vector.increment(site);
  // The replica's own per-site counter equals the global per-site sequence
  // because a site's updates are serial on its single replica of the object.
  const UpdateId u{site, r.oracle_vector.value(site)};
  if (cfg_.check_oracle) check_replica(r);
  return u;
}

void StateSystem::emit_effects(double at, ObjectId obj, const SessionEffects& fx,
                               SiteId src, SiteId dst, std::uint64_t span,
                               const ReplicaMap<vv::VersionVector>* shadow) {
  if (cfg_.causal == nullptr) return;
  // Coverage of u only changes when some replica absorbs u itself, so
  // checking at every origin/deliver of u closes each trace exactly when the
  // update stops diverging. Replica-set growth (a fresh empty replica created
  // by a later sync) re-opens the trace until the newcomer catches up; the
  // analyzer keys on the *last* kConverge of a trace.
  const auto converge_if_covered = [&](const UpdateId& u) {
    const auto has = [&u](const vv::VersionVector& v) { return v.value(u.site) >= u.seq; };
    const auto replica_has = [&](const StateReplica& r) { return has(r.oracle_vector); };
    const bool covered = shadow != nullptr ? shadow->all_cover(obj, has)
                                           : replicas_.all_cover(obj, replica_has);
    if (covered) cfg_.causal->converge(at, obj, u.site, u.seq);
  };
  for (const UpdateId& u : fx.fresh) {
    cfg_.causal->deliver(at, obj, u.site, u.seq, span, src, dst);
    converge_if_covered(u);
  }
  if (fx.origin) {
    cfg_.causal->origin(at, obj, fx.origin->site, fx.origin->seq);
    converge_if_covered(*fx.origin);
  }
}

void StateSystem::check_replica(const StateReplica& r) const {
  OPTREP_CHECK_MSG(r.vector.same_values(r.oracle_vector),
                   "rotating vector diverged from the traditional-vector oracle");
}

}  // namespace optrep::repl
