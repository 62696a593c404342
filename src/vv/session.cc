// Thin I/O binding for the sans-I/O protocol cores (vv/protocol/).
//
// All protocol logic — SYNCB/SYNCC/SYNCS, the two baselines, COMPARE — lives
// in pure step(event)->actions state machines. This file owns everything the
// cores must not: the event loop, the framed links, speculative send/revoke
// bookkeeping, message sizing (§3.3 model bits + realistic bytes), tracing,
// metrics, fault injection, and the retry loop (sync_with_recovery).
#include "vv/session.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/prof.h"
#include "sim/fault_link.h"
#include "vv/codec.h"
#include "vv/frame_codec.h"
#include "vv/protocol/baseline_core.h"
#include "vv/protocol/compare_core.h"
#include "vv/protocol/core.h"
#include "vv/protocol/receiver_core.h"
#include "vv/protocol/sender_core.h"

namespace optrep::vv {

std::uint64_t msg_model_bits(const CostModel& cm, VectorKind kind, const VvMsg& m) {
  switch (m.kind) {
    case VvMsg::Kind::kElem:
      switch (kind) {
        case VectorKind::kBrv: return cm.elem_bits(0);
        case VectorKind::kCrv: return cm.elem_bits(1);
        case VectorKind::kSrv: return cm.elem_bits(2);
      }
      return cm.elem_bits(2);
    case VvMsg::Kind::kHalt: return cm.halt_bits();
    case VvMsg::Kind::kSkip: return cm.skip_bits();
    case VvMsg::Kind::kSkipped: return 2;  // O(1) marker; same budget as HALT
    case VvMsg::Kind::kAck: return cm.ack_bits();
    case VvMsg::Kind::kProbe: return cm.compare_probe_bits();
    case VvMsg::Kind::kVerdict: return 1;
  }
  return 0;
}

std::uint64_t msg_wire_bytes(VectorKind kind, const VvMsg& m) {
  switch (m.kind) {
    case VvMsg::Kind::kElem: return wire_bytes_elem(kind != VectorKind::kBrv);
    case VvMsg::Kind::kHalt: return wire_bytes_halt();
    case VvMsg::Kind::kSkip: return wire_bytes_skip();
    case VvMsg::Kind::kSkipped: return wire_bytes_halt();
    case VvMsg::Kind::kAck: return wire_bytes_ack();
    case VvMsg::Kind::kProbe: return wire_bytes_elem(false);
    case VvMsg::Kind::kVerdict: return 1;
  }
  return 0;
}

std::string VvMsg::to_string() const {
  switch (kind) {
    case Kind::kElem: {
      std::string s = "ELEM(" + site_name(site) + ":" + std::to_string(value);
      if (conflict) s += ",c";
      if (segment) s += ",s";
      return s + ")";
    }
    case Kind::kHalt: return "HALT";
    case Kind::kSkip: return "SKIP(" + std::to_string(arg) + ")";
    case Kind::kSkipped: return "SKIPPED";
    case Kind::kAck: return "ACK";
    case Kind::kProbe:
      return value == 0 ? "PROBE(empty)"
                        : "PROBE(" + site_name(site) + ":" + std::to_string(value) + ")";
    case Kind::kVerdict: return arg != 0 ? "VERDICT(covers)" : "VERDICT(not)";
  }
  return "?";
}

namespace {

// Map one wire message to its typed trace event (receiver-side semantic
// events — applied/redundant/straggler — are emitted by the receiver cores
// as trace actions, where the classification happens).
obs::TraceEventType wire_event_type(bool forward, const VvMsg& m) {
  switch (m.kind) {
    case VvMsg::Kind::kElem: return obs::TraceEventType::kElemSent;
    case VvMsg::Kind::kHalt: return obs::TraceEventType::kHalt;
    case VvMsg::Kind::kSkip: return obs::TraceEventType::kSkipIssued;
    case VvMsg::Kind::kSkipped: return obs::TraceEventType::kSkipHonored;
    case VvMsg::Kind::kAck: return obs::TraceEventType::kAck;
    case VvMsg::Kind::kProbe: return obs::TraceEventType::kProbe;
    case VvMsg::Kind::kVerdict: return obs::TraceEventType::kVerdict;
  }
  (void)forward;
  return obs::TraceEventType::kElemSent;
}

// Per-session aggregates under the "vv." prefix. Runs once per session (not
// per message); instrument lookups are heterogeneous map finds, so nothing
// here allocates after the first session. Fault/violation counters are only
// touched when nonzero, keeping fault-free metric sets unchanged.
void publish_session_metrics(obs::Registry* reg, const SyncReport& r) {
  if (reg == nullptr) return;
  reg->counter("vv.sessions").inc();
  reg->counter("vv.bits_fwd").inc(r.bits_fwd);
  reg->counter("vv.bits_rev").inc(r.bits_rev);
  reg->counter("vv.bytes").inc(r.total_bytes());
  reg->counter("vv.msgs").inc(r.msgs_fwd + r.msgs_rev);
  reg->counter("vv.elems_sent").inc(r.elems_sent);
  reg->counter("vv.elems_applied").inc(r.elems_applied);
  reg->counter("vv.elems_redundant").inc(r.elems_redundant);
  reg->counter("vv.elems_after_halt").inc(r.elems_after_halt);
  reg->counter("vv.skip_msgs").inc(r.skip_msgs);
  reg->counter("vv.segments_skipped").inc(r.segments_skipped);
  reg->counter("vv.ack_msgs").inc(r.ack_msgs);
  reg->counter("vv.frames").inc(r.total_frames());
  reg->counter("vv.framed_bytes").inc(r.total_framed_bytes());
  reg->counter("vv.loop_events").inc(r.loop_events);
  if (r.total_faults() > 0) reg->counter("vv.faults_injected").inc(r.total_faults());
  if (r.faults_decode_errors > 0) {
    reg->counter("vv.faults_decode_errors").inc(r.faults_decode_errors);
  }
  if (r.protocol_violations > 0) {
    reg->counter("vv.protocol_violations").inc(r.protocol_violations);
  }
  reg->histogram("vv.session_bits").record(r.total_bits());
  // Dispatch efficiency of the transport: executed events per transmitted
  // element, x100 (framing drives this far below 100).
  reg->histogram("vv.events_per_100_elems")
      .record(r.elems_sent > 0 ? r.loop_events * 100 / r.elems_sent : r.loop_events * 100);
}

obs::FlightFault flight_fault(sim::FaultKind k, bool decode_error) {
  switch (k) {
    case sim::FaultKind::kDropped: return obs::FlightFault::kDropped;
    case sim::FaultKind::kDuplicated: return obs::FlightFault::kDuplicated;
    case sim::FaultKind::kReordered: return obs::FlightFault::kReordered;
    case sim::FaultKind::kCorrupted:
      return decode_error ? obs::FlightFault::kDecodeError : obs::FlightFault::kCorrupted;
  }
  return obs::FlightFault::kNone;
}

// Builds the bit-flip corrupter the fault injector runs over discarded
// messages: encode with the real per-message codec, flip one uniformly
// chosen bit, and attempt the typed re-decode so FaultStats can report how
// many corruptions the decoder alone would have rejected.
sim::FaultInjector<VvMsg>::Corrupter make_corrupter(CostModel cm, VectorKind kind,
                                                    Direction dir) {
  return [cm, kind, dir](VvMsg& m, Rng& rng) -> bool {
    BitWriter w;
    encode_msg(w, cm, kind, dir, m);
    if (w.bit_size() == 0) return true;
    std::vector<std::uint8_t> buf = w.bytes();
    const std::uint64_t bit = rng.below(w.bit_size());
    buf[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    BitReader r(buf);
    const MsgDecodeResult d = try_decode_msg(r, cm, kind, dir, w.bit_size());
    if (!d.ok()) return true;
    m = d.msg;
    return false;
  };
}

// Scratch action buffer shared by every driver on this thread: dispatches
// never nest (links deliver via scheduled events, never synchronously), and
// the retained capacity keeps steady-state sessions off the allocator.
protocol::Actions& scratch_actions() {
  static thread_local protocol::Actions acts;
  return acts;
}

// Pumps one protocol core over one direction of the simulated transport:
// executes the core's actions (sized counted sends, revocations, parked
// continuations, trace markers) and feeds arriving messages back as events.
// This is the only place protocol state meets the clock.
template <class Core>
class CoreDriver {
 public:
  CoreDriver(sim::EventLoop* loop, sim::FrameLink<VvMsg>* tx, const SyncOptions* opt,
             VectorKind size_kind, Core core, const std::uint64_t* causal_span = nullptr)
      : loop_(loop),
        tx_(tx),
        opt_(opt),
        size_kind_(size_kind),
        core_(std::move(core)),
        causal_span_(causal_span) {}

  // Parked continuations capture `this`: pinned to the construction address.
  CoreDriver(const CoreDriver&) = delete;
  CoreDriver& operator=(const CoreDriver&) = delete;

  Core& core() { return core_; }
  const Core& core() const { return core_; }

  void start() { dispatch(protocol::Event::start()); }
  void abort() { dispatch(protocol::Event::abort()); }

  void on_message(const VvMsg& m) {
    protocol::TailView tail;
    if (m.kind == VvMsg::Kind::kHalt || m.kind == VvMsg::Kind::kSkip) {
      // Snapshot the speculative tail of our outgoing link: the core decides
      // on revocation from counts alone (sans-I/O), and cancel_tail revokes
      // exactly the messages this peek visits.
      tx_->peek_tail([&tail](const VvMsg& q) {
        if (q.kind == VvMsg::Kind::kHalt) {
          tail.halt = true;
        } else if (q.kind == VvMsg::Kind::kElem) {
          ++tail.elems;
          if (q.segment) ++tail.segment_finals;
        }
      });
    }
    dispatch(protocol::Event::msg_arrival(m, tail));
  }

  sim::Time done_at() const { return done_at_; }

 private:
  void on_pump() {
    pending_ = 0;
    dispatch(protocol::Event::link_free());
  }

  sim::Time send(const VvMsg& m, bool revocable) {
    std::uint64_t bits = msg_model_bits(opt_->cost, size_kind_, m);
    std::uint64_t bytes = msg_wire_bytes(size_kind_, m);
    if (m.kind == VvMsg::Kind::kAck && opt_->mode == TransferMode::kIdeal) {
      bits = 0;  // kIdeal: flow control is free; measures pure algorithm cost
      bytes = 0;
    }
    return tx_->send(m, bits, bytes, revocable);
  }

  void trace(obs::TraceEventType type, const VvMsg& m) {
    // The cores' trace actions carry causal context (protocol/core.h): an
    // applied element is the moment receiver state advanced, so it becomes a
    // kApply edge on the session's span.
    if (opt_->causal != nullptr && type == obs::TraceEventType::kElemApplied) {
      opt_->causal->apply(loop_->now(), causal_span_ != nullptr ? *causal_span_ : 0,
                          m.site, m.value);
    }
    if (opt_->tracer == nullptr) return;
    opt_->tracer->record(obs::TraceEvent{.at = loop_->now(),
                                         .session = opt_->trace_session,
                                         .type = type,
                                         .forward = true,
                                         .site = m.site,
                                         .value = m.value,
                                         .bits = 0});
  }

  void dispatch(const protocol::Event& ev) {
    protocol::Actions& acts = scratch_actions();
    acts.clear();
    core_.step(ev, acts);
    // `free` tracks the link-free time reached by this dispatch's sends —
    // where kPumpWhenFree parks the continuation (the unframed pump's
    // schedule, and the last burst message's free time when framed).
    sim::Time free = loop_->now();
    for (const protocol::Action& a : acts) {
      switch (a.type) {
        case protocol::Action::Type::kSend:
          free = send(a.msg, /*revocable=*/false);
          break;
        case protocol::Action::Type::kSendRevocable:
          free = send(a.msg, /*revocable=*/true);
          break;
        case protocol::Action::Type::kRevokeTail:
          // The core already rewound its cursor from the event's TailView.
          tx_->cancel_tail([](const VvMsg&) {});
          break;
        case protocol::Action::Type::kPumpWhenFree:
          pending_ = loop_->schedule(free, [this] { on_pump(); });
          break;
        case protocol::Action::Type::kCaptureResume:
          resume_ = std::max(loop_->now(), tx_->free_at());
          break;
        case protocol::Action::Type::kRepumpAtResume:
          if (pending_ != 0) loop_->cancel(pending_);
          pending_ = loop_->schedule(resume_, [this] { on_pump(); });
          break;
        case protocol::Action::Type::kFinished:
          if (done_at_ == 0) done_at_ = loop_->now();
          if (pending_ != 0) {
            loop_->cancel(pending_);
            pending_ = 0;
          }
          break;
        case protocol::Action::Type::kTraceApplied:
          trace(obs::TraceEventType::kElemApplied, a.msg);
          break;
        case protocol::Action::Type::kTraceRedundant:
          trace(obs::TraceEventType::kElemRedundant, a.msg);
          break;
        case protocol::Action::Type::kTraceStraggler:
          trace(obs::TraceEventType::kElemStraggler, a.msg);
          break;
      }
    }
  }

  sim::EventLoop* loop_;
  sim::FrameLink<VvMsg>* tx_;
  const SyncOptions* opt_;
  VectorKind size_kind_;
  Core core_;
  const std::uint64_t* causal_span_{nullptr};  // wiring's session span id
  sim::EventLoop::EventId pending_{0};
  sim::Time resume_{0};
  sim::Time done_at_{0};
};

struct SessionWiring {
  using Handler = std::function<void(const VvMsg&)>;

  explicit SessionWiring(sim::EventLoop& loop, const SyncOptions& opt)
      : duplex(&loop, opt.net),
        loop_(&loop),
        opt_(&opt),
        tracer(opt.tracer),
        recorder(opt.recorder),
        causal(opt.causal),
        session(opt.trace_session) {
    // Realistic framed-byte accounting (vv/frame_codec.h) and the control
    // flush rule. Function pointers and captureless lambdas: no per-session
    // heap allocation.
    duplex.b_to_a().set_frame_sizer(&frame_wire_bytes);
    duplex.a_to_b().set_frame_sizer(&frame_wire_bytes);
    duplex.b_to_a().set_msg_sizer(&frame_wire_bytes_single);
    duplex.a_to_b().set_msg_sizer(&frame_wire_bytes_single);
    const auto flush = [](const VvMsg& m) { return m.kind != VvMsg::Kind::kElem; };
    duplex.b_to_a().set_flush_after(flush);
    duplex.a_to_b().set_flush_after(flush);
    // Taps are read in place from the options (which outlive the session) —
    // copying them here would clone a std::function per tap per session.
    bool any_tap = false;
    for (const auto& t : opt.taps) any_tap = any_tap || static_cast<bool>(t);
    if (any_tap || tracer != nullptr || recorder != nullptr || causal != nullptr) {
      duplex.b_to_a().set_tap([this](sim::Time at, const VvMsg& m, std::uint64_t bits) {
        observe(at, true, m, bits);
      });
      duplex.a_to_b().set_tap([this](sim::Time at, const VvMsg& m, std::uint64_t bits) {
        observe(at, false, m, bits);
      });
    }
    if (causal != nullptr) {
      // The session's hop span, opened at construction (== session start
      // time). The delivery taps stamp the receive half of every
      // send → receive edge at the message's exact arrival instant.
      span = causal->begin_span(loop.now(), opt.causal_parent, opt.src_site,
                                opt.dst_site, opt.causal_attempt);
      duplex.b_to_a().set_delivery_tap([this](sim::Time at, const VvMsg& m) {
        observe_recv(at, true, m);
      });
      duplex.a_to_b().set_delivery_tap([this](sim::Time at, const VvMsg& m) {
        observe_recv(at, false, m);
      });
    }
  }

  // Install the endpoints' delivery handlers. When fault injection is on, a
  // FaultInjector interposes per direction; with faults off no injector is
  // constructed and the delivery path is identical to the pre-fault build
  // (fault-free bit-identity is a hard invariant, tested).
  void connect(Handler to_receiver, Handler to_sender, VectorKind size_kind) {
    if (opt_->net.faults.enabled()) {
      // Reordered messages are held one propagation latency by default (plus
      // ε so zero-latency links still reorder).
      const sim::Time hold = opt_->net.latency_s + 1e-6;
      // Decorrelate sessions sharing one loop: each session would otherwise
      // replay the identical prefix of the (seed, salt) fault stream — a few
      // unlucky leading rolls would then repeat in every session of a run.
      // The executed-event count is deterministic, so runs stay reproducible.
      sim::NetConfig::FaultConfig fc = opt_->net.faults;
      fc.seed = sim::fault_stream_seed(fc.seed, 0xA5A5ULL + loop_->executed_events());
      inj_fwd.emplace(loop_, fc, sim::kFaultSaltForward, hold);
      inj_rev.emplace(loop_, fc, sim::kFaultSaltReverse, hold);
      inj_fwd->set_receiver(std::move(to_receiver));
      inj_rev->set_receiver(std::move(to_sender));
      inj_fwd->set_corrupter(make_corrupter(opt_->cost, size_kind, Direction::kForward));
      inj_rev->set_corrupter(make_corrupter(opt_->cost, size_kind, Direction::kReverse));
      if (recorder != nullptr || causal != nullptr) {
        inj_fwd->set_observer([this](sim::FaultKind k, bool dec, const VvMsg& m) {
          on_fault(true, k, dec, m);
        });
        inj_rev->set_observer([this](sim::FaultKind k, bool dec, const VvMsg& m) {
          on_fault(false, k, dec, m);
        });
      }
      duplex.b_to_a().set_receiver([this](const VvMsg& m) { inj_fwd->deliver(m); });
      duplex.a_to_b().set_receiver([this](const VvMsg& m) { inj_rev->deliver(m); });
    } else {
      duplex.b_to_a().set_receiver(std::move(to_receiver));
      duplex.a_to_b().set_receiver(std::move(to_sender));
    }
  }

  void observe(sim::Time at, bool forward, const VvMsg& m, std::uint64_t bits) {
    for (const auto& t : opt_->taps) {
      if (t) t(forward, m);
    }
    if (tracer != nullptr) {
      tracer->record(obs::TraceEvent{.at = at,
                                     .session = session,
                                     .type = wire_event_type(forward, m),
                                     .forward = forward,
                                     .site = m.site,
                                     .value = m.kind == VvMsg::Kind::kSkip ? m.arg : m.value,
                                     .bits = bits});
    }
    if (recorder != nullptr) {
      recorder->record(obs::FlightRecord{
          .at = at,
          .session = session,
          .type = wire_event_type(forward, m),
          .forward = forward,
          .site = m.site,
          .value = m.kind == VvMsg::Kind::kSkip ? m.arg : m.value,
          .bits = bits,
          .fault = obs::FlightFault::kNone});
    }
    if (causal != nullptr) {
      const bool upd = protocol::carries_update_context(m);
      causal->wire(at, /*recv=*/false, span, forward, upd ? m.site : SiteId{},
                   upd ? m.value : (m.kind == VvMsg::Kind::kSkip ? m.arg : 0), bits);
    }
  }

  // Delivery tap: the receive half of a send → receive edge, stamped at the
  // message's arrival instant (before any fault-injector verdict — a dropped
  // message shows a recv followed by its kFault). Bits are charged on the
  // send event; the receive edge carries timing only.
  void observe_recv(sim::Time at, bool forward, const VvMsg& m) {
    const bool upd = protocol::carries_update_context(m);
    causal->wire(at, /*recv=*/true, span, forward, upd ? m.site : SiteId{},
                 upd ? m.value : (m.kind == VvMsg::Kind::kSkip ? m.arg : 0), 0);
  }

  // Fault-injection observer: annotate the affected message in the ring. A
  // typed decode error is the anomaly class worth a post-mortem on its own —
  // it means a corruption got past the model's checksum assumption and only
  // the codec caught it — so it also triggers the freeze.
  void on_fault(bool forward, sim::FaultKind k, bool decode_error, const VvMsg& m) {
    const obs::FlightFault f = flight_fault(k, decode_error);
    if (recorder != nullptr) {
      recorder->record(obs::FlightRecord{
          .at = loop_->now(),
          .session = session,
          .type = wire_event_type(forward, m),
          .forward = forward,
          .site = m.site,
          .value = m.kind == VvMsg::Kind::kSkip ? m.arg : m.value,
          .bits = 0,
          .fault = f});
      if (f == obs::FlightFault::kDecodeError) {
        recorder->trigger("decode_error", loop_->now());
      }
    }
    if (causal != nullptr) {
      causal->fault(loop_->now(), span, forward, f, m.site,
                    m.kind == VvMsg::Kind::kSkip ? m.arg : m.value);
    }
  }

  void trace_boundary(sim::EventLoop& loop, obs::TraceEventType type, std::uint64_t bits) {
    if (tracer != nullptr) {
      tracer->record(obs::TraceEvent{.at = loop.now(),
                                     .session = session,
                                     .type = type,
                                     .forward = true,
                                     .site = SiteId{},
                                     .value = 0,
                                     .bits = bits});
    }
  }

  // Close any open frames (end of session is a flush point) and harvest the
  // framing figures, the event-loop dispatch count, and the fault statistics
  // into the report.
  void harvest_framing(sim::EventLoop& loop, std::uint64_t events_before, SyncReport& r) {
    duplex.b_to_a().close_frame();
    duplex.a_to_b().close_frame();
    r.frames_fwd = duplex.b_to_a().stats().frames;
    r.frames_rev = duplex.a_to_b().stats().frames;
    r.framed_bytes_fwd = duplex.b_to_a().stats().framed_wire_bytes;
    r.framed_bytes_rev = duplex.a_to_b().stats().framed_wire_bytes;
    r.loop_events = loop.executed_events() - events_before;
    if (inj_fwd.has_value()) {
      r.faults_dropped = inj_fwd->stats().dropped + inj_rev->stats().dropped;
      r.faults_duplicated = inj_fwd->stats().duplicated + inj_rev->stats().duplicated;
      r.faults_reordered = inj_fwd->stats().reordered + inj_rev->stats().reordered;
      r.faults_corrupted = inj_fwd->stats().corrupted + inj_rev->stats().corrupted;
      r.faults_decode_errors =
          inj_fwd->stats().corrupt_decode_errors + inj_rev->stats().corrupt_decode_errors;
    }
  }

  sim::FrameDuplex<VvMsg> duplex;  // a_to_b: receiver→sender, b_to_a: sender→receiver
  sim::EventLoop* loop_;
  const SyncOptions* opt_;
  obs::Tracer* tracer{nullptr};
  obs::FlightRecorder* recorder{nullptr};
  obs::CausalTracer* causal{nullptr};
  std::uint64_t span{0};  // this session's causal hop span (0 when untraced)
  std::uint64_t session{0};
  std::optional<sim::FaultInjector<VvMsg>> inj_fwd;
  std::optional<sim::FaultInjector<VvMsg>> inj_rev;
};

// The one shared report builder: rotating sessions and baseline sessions
// fill the same fields from the same sources (link stats, receiver counters,
// timing) instead of each assembling a SyncReport by hand.
struct SessionAccounting {
  Ordering rel{Ordering::kEqual};
  std::uint64_t compare_bits{0};
  sim::Time t0{0};
  sim::Time t_end{0};
  const sim::LinkStats* fwd{nullptr};
  const sim::LinkStats* rev{nullptr};
  std::uint64_t elems_sent{0};
  const protocol::ReceiverCounters* rc{nullptr};
  sim::Time receiver_done_at{0};
  std::uint64_t sender_violations{0};

  SyncReport build() const {
    SyncReport r;
    r.initial_relation = rel;
    r.bits_fwd = fwd->model_bits + compare_bits / 2;
    r.bits_rev = rev->model_bits + compare_bits / 2;
    r.bytes_fwd = fwd->wire_bytes + (compare_bits > 0 ? wire_bytes_elem(false) : 0);
    r.bytes_rev = rev->wire_bytes + (compare_bits > 0 ? wire_bytes_elem(false) : 0);
    r.msgs_fwd = fwd->messages + (compare_bits > 0 ? 1 : 0);
    r.msgs_rev = rev->messages + (compare_bits > 0 ? 1 : 0);
    r.elems_sent = elems_sent;
    r.elems_applied = rc->applied;
    r.elems_redundant = rc->redundant;
    r.elems_straggler = rc->straggler;
    r.elems_after_halt = rc->after_halt;
    r.skip_msgs = rc->skip_msgs;
    r.segments_skipped = rc->segments_skipped;
    r.ack_msgs = rc->acks;
    r.duration = t_end - t0;
    r.receiver_done_at = (receiver_done_at > t0 ? receiver_done_at - t0 : 0);
    r.protocol_violations = sender_violations + rc->violations;
    return r;
  }
};

// The one session runner: drives a sender core and a receiver core over a
// fresh framed duplex until the loop quiesces, then builds the report.
// Messages are sized as `size_kind` elements (baselines: plain BRV elements).
template <class SenderCore, class ReceiverCore>
SyncReport run_session(sim::EventLoop& loop, const SyncOptions& opt, VectorKind size_kind,
                       Ordering rel, std::uint64_t compare_bits, SenderCore sender_core,
                       ReceiverCore receiver_core) {
  SessionWiring w(loop, opt);
  CoreDriver<SenderCore> sender(&loop, &w.duplex.b_to_a(), &opt, size_kind,
                                std::move(sender_core), &w.span);
  CoreDriver<ReceiverCore> receiver(&loop, &w.duplex.a_to_b(), &opt, size_kind,
                                    std::move(receiver_core), &w.span);
  w.connect([&receiver](const VvMsg& m) { receiver.on_message(m); },
            [&sender](const VvMsg& m) { sender.on_message(m); }, size_kind);
  const sim::Time t0 = loop.now();
  const std::uint64_t ev0 = loop.executed_events();
  w.trace_boundary(loop, obs::TraceEventType::kSessionBegin, 0);
  loop.schedule(t0, [&sender] { sender.start(); });
  const sim::Time t_end = loop.run();
  if (opt.net.faults.enabled() && !receiver.core().finished()) {
    // The attempt stalled (a dropped HALT/ACK): tear the receiver down so it
    // closes any open SRV segment run — partial state must stay safe for the
    // next attempt and for future sessions.
    receiver.abort();
  }
  const SessionAccounting acc{rel,
                              compare_bits,
                              t0,
                              t_end,
                              &w.duplex.b_to_a().stats(),
                              &w.duplex.a_to_b().stats(),
                              sender.core().elems_sent(),
                              &receiver.core().counters(),
                              receiver.done_at(),
                              sender.core().violations()};
  SyncReport r = acc.build();
  w.harvest_framing(loop, ev0, r);
  w.trace_boundary(loop, obs::TraceEventType::kSessionEnd, r.total_bits());
  if (w.causal != nullptr) {
    // `ok` = the receiver reached clean protocol quiescence (always true
    // fault-free; under faults a dropped control message can strand it).
    w.causal->end_span(loop.now(), w.span, r.total_bits(), receiver.core().finished());
    r.causal_span = w.span;
  }
  publish_session_metrics(opt.metrics, r);
  return r;
}

// The rotating-vector sender: one core for all three algorithms, bursting a
// frame budget per pump when framed.
protocol::ElementSenderCore element_sender(const SyncOptions& opt, const RotatingVector& b) {
  protocol::ElementSenderCore::Config cfg;
  cfg.skip_enabled = opt.kind == VectorKind::kSrv;
  cfg.pipelined = opt.mode == TransferMode::kPipelined;
  cfg.framed = opt.net.frame_budget > 0;
  cfg.burst = cfg.framed ? opt.net.frame_budget : 1;
  return protocol::ElementSenderCore(cfg, &b);
}

std::vector<std::pair<SiteId, std::uint64_t>> sorted_elements(const VersionVector& v) {
  std::vector<std::pair<SiteId, std::uint64_t>> out(v.elements().begin(), v.elements().end());
  std::sort(out.begin(), out.end());
  return out;
}

Ordering resolve_relation(const RotatingVector& a, const RotatingVector& b,
                          const SyncOptions& opt, std::uint64_t* compare_bits) {
  if (opt.known_relation.has_value()) {
    *compare_bits = 0;
    return *opt.known_relation;
  }
  *compare_bits = compare_cost_bits(opt.cost);
  return compare_fast(a, b);
}

}  // namespace

SyncReport sync_basic(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                      const SyncOptions& opt) {
  OPTREP_SPAN("vv.syncb");
  std::uint64_t cb = 0;
  const Ordering rel = resolve_relation(a, b, opt, &cb);
  return run_session(loop, opt, opt.kind, rel, cb, element_sender(opt, b),
                     protocol::BasicReceiverCore(opt.mode == TransferMode::kPipelined, &a));
}

SyncReport sync_conflict(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                         const SyncOptions& opt) {
  OPTREP_SPAN("vv.syncc");
  std::uint64_t cb = 0;
  const Ordering rel = resolve_relation(a, b, opt, &cb);
  return run_session(loop, opt, opt.kind, rel, cb, element_sender(opt, b),
                     protocol::ConflictReceiverCore(opt.mode == TransferMode::kPipelined, &a,
                                                    rel == Ordering::kConcurrent));
}

SyncReport sync_skip(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                     const SyncOptions& opt) {
  OPTREP_SPAN("vv.syncs");
  std::uint64_t cb = 0;
  const Ordering rel = resolve_relation(a, b, opt, &cb);
  return run_session(loop, opt, opt.kind, rel, cb, element_sender(opt, b),
                     protocol::SkipReceiverCore(opt.mode == TransferMode::kPipelined, &a,
                                                rel == Ordering::kConcurrent));
}

SyncReport sync_rotating(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                         const SyncOptions& opt) {
  switch (opt.kind) {
    case VectorKind::kBrv: return sync_basic(loop, a, b, opt);
    case VectorKind::kCrv: return sync_conflict(loop, a, b, opt);
    case VectorKind::kSrv: return sync_skip(loop, a, b, opt);
  }
  OPTREP_CHECK(false);
  return {};
}

namespace {

// Fold one attempt's traffic/element/fault accounting into the recovery
// total. Retry attempts additionally charge recovery_bits.
void accumulate_attempt(SyncReport& total, const SyncReport& r, bool retry_attempt,
                        sim::Time attempt_offset) {
  total.bits_fwd += r.bits_fwd;
  total.bits_rev += r.bits_rev;
  total.bytes_fwd += r.bytes_fwd;
  total.bytes_rev += r.bytes_rev;
  total.msgs_fwd += r.msgs_fwd;
  total.msgs_rev += r.msgs_rev;
  total.frames_fwd += r.frames_fwd;
  total.frames_rev += r.frames_rev;
  total.framed_bytes_fwd += r.framed_bytes_fwd;
  total.framed_bytes_rev += r.framed_bytes_rev;
  total.loop_events += r.loop_events;
  total.elems_sent += r.elems_sent;
  total.elems_applied += r.elems_applied;
  total.elems_redundant += r.elems_redundant;
  total.elems_straggler += r.elems_straggler;
  total.elems_after_halt += r.elems_after_halt;
  total.skip_msgs += r.skip_msgs;
  total.segments_skipped += r.segments_skipped;
  total.ack_msgs += r.ack_msgs;
  total.protocol_violations += r.protocol_violations;
  total.faults_dropped += r.faults_dropped;
  total.faults_duplicated += r.faults_duplicated;
  total.faults_reordered += r.faults_reordered;
  total.faults_corrupted += r.faults_corrupted;
  total.faults_decode_errors += r.faults_decode_errors;
  if (r.receiver_done_at > 0) total.receiver_done_at = attempt_offset + r.receiver_done_at;
  if (retry_attempt) total.recovery_bits += r.total_bits();
}

sim::Time backoff_delay(const RetryPolicy& p, std::uint32_t retry_index) {
  sim::Time d = p.base_backoff_s;
  for (std::uint32_t i = 1; i < retry_index; ++i) {
    d *= 2;
    if (d >= p.max_backoff_s) return p.max_backoff_s;
  }
  return std::min(d, p.max_backoff_s);
}

}  // namespace

SyncReport sync_with_recovery(sim::EventLoop& loop, RotatingVector& a, const RotatingVector& b,
                              const SyncOptions& opt) {
  if (!opt.net.faults.enabled()) return sync_rotating(loop, a, b, opt);
  OPTREP_SPAN("vv.sync_recovery");
  const sim::Time t0 = loop.now();
  SyncReport total;
  bool converged = false;
  std::uint32_t runs = 0;
  // Causal root span for the whole recovery: each attempt's session span is
  // parented under it, so the analyzer can roll a delivery's retries and
  // backoff into one hop.
  std::uint64_t root = 0;
  if (opt.causal != nullptr) {
    root = opt.causal->begin_span(t0, opt.causal_parent, opt.src_site, opt.dst_site,
                                  opt.causal_attempt);
  }
  // The receiver's pre-sync state. Every attempt starts from here: the
  // receiver-halt rule (Alg 2/3/4 stop at the first already-known element)
  // is only sound when the receiver's knowledge is prefix-closed w.r.t. the
  // sender's rotation order, and a faulted partial application breaks that —
  // a retry against partial state would halt early forever. Discarding the
  // partial join costs re-sent elements (charged to recovery_bits), never
  // correctness.
  const RotatingVector original = a;
  Ordering rel0 = Ordering::kEqual;  // relation of (original, b), fixed
  while (true) {
    std::uint64_t cb = 0;
    if (runs == 0) {
      // Initial relation; re-used for every attempt since each starts from
      // `original`. The *exact* comparator: callers on lossy paths may hold
      // vectors outside the at-rest states compare_fast assumes.
      if (opt.known_relation.has_value()) {
        rel0 = *opt.known_relation;
      } else {
        rel0 = compare_full(a, b);
        cb = compare_cost_bits(opt.cost);
      }
      total.initial_relation = rel0;
      if (rel0 == Ordering::kEqual || rel0 == Ordering::kAfter) {
        converged = true;  // receiver already covers the sender
      }
    } else {
      // Convergence check on the last attempt's outcome (exact comparison:
      // a partial join is not an at-rest state).
      const Ordering rel = compare_full(a, b);
      cb = compare_cost_bits(opt.cost);
      total.recovery_bits += cb;
      if (rel == Ordering::kEqual || rel == Ordering::kAfter) {
        converged = true;  // receiver covers the sender: element-wise max holds
      } else {
        a = original;  // discard partial progress (halt-rule safety, above)
      }
    }
    total.bits_fwd += cb / 2;
    total.bits_rev += cb / 2;
    if (cb > 0) {
      total.bytes_fwd += wire_bytes_elem(false);
      total.bytes_rev += wire_bytes_elem(false);
      total.msgs_fwd += 1;
      total.msgs_rev += 1;
    }
    if (converged) break;
    if (opt.kind == VectorKind::kBrv && rel0 == Ordering::kConcurrent && runs > 0) {
      break;  // SYNCB cannot reconcile ‖ (Alg 2 precondition): best effort only
    }
    if (runs > opt.retry.max_retries) break;  // retry budget exhausted
    if (runs > 0) {
      // Bounded exponential backoff, advanced on the simulated clock by a
      // no-op event so the next attempt's timestamps reflect the wait.
      loop.schedule(loop.now() + backoff_delay(opt.retry, runs), [] {});
      loop.run();
    }
    SyncOptions cur = opt;
    cur.known_relation = rel0;
    // Every attempt observes an independent deterministic fault pattern.
    cur.net.faults.seed = sim::fault_attempt_seed(opt.net.faults.seed, runs);
    cur.causal_parent = root;
    cur.causal_attempt = runs;
    if (opt.recorder != nullptr) opt.recorder->note_attempt(runs);
    const sim::Time astart = loop.now();
    const SyncReport r = sync_rotating(loop, a, b, cur);
    accumulate_attempt(total, r, runs > 0, astart - t0);
    ++runs;
  }
  // A failed sync leaves the receiver exactly as it was: callers never see a
  // partially joined vector (the repl systems rely on this to keep metadata
  // and content atomic).
  if (!converged) {
    a = original;
    if (opt.recorder != nullptr) opt.recorder->trigger("retry_exhausted", loop.now());
  }
  total.attempts = runs;
  total.retries = runs > 0 ? runs - 1 : 0;
  total.converged = converged;
  total.duration = loop.now() - t0;
  if (opt.causal != nullptr) {
    opt.causal->end_span(loop.now(), root, total.total_bits(), converged);
    total.causal_span = root;
  }
  if (opt.metrics != nullptr) {
    if (total.retries > 0) opt.metrics->counter("vv.retries").inc(total.retries);
    if (!converged) opt.metrics->counter("vv.sync_failures").inc();
  }
  return total;
}

// Baseline sessions: the send set is known upfront, so the sender core emits
// everything on kStart (the link's FIFO pacing models transmission time) and
// the receiver core simply joins. Baseline traffic is sized as BRV elements
// (no conflict/segment bits) regardless of opt.kind.
SyncReport sync_traditional(sim::EventLoop& loop, VersionVector& a, const VersionVector& b,
                            const SyncOptions& opt) {
  OPTREP_SPAN("vv.traditional");
  const Ordering rel = a.compare(b);
  const auto to_send = sorted_elements(b);
  return run_session(loop, opt, VectorKind::kBrv, rel, /*compare_bits=*/0,
                     protocol::BaselineSenderCore(&to_send), protocol::BaselineReceiverCore(&a));
}

SyncReport sync_singhal_kshemkalyani(sim::EventLoop& loop, VersionVector& a,
                                     const VersionVector& b, VersionVector& last_sent,
                                     const SyncOptions& opt) {
  OPTREP_SPAN("vv.sk");
  const Ordering rel = a.compare(b);
  std::vector<std::pair<SiteId, std::uint64_t>> delta;
  for (const auto& [site, value] : sorted_elements(b)) {
    if (value > last_sent.value(site)) delta.emplace_back(site, value);
  }
  last_sent = b;
  return run_session(loop, opt, VectorKind::kBrv, rel, /*compare_bits=*/0,
                     protocol::BaselineSenderCore(&delta), protocol::BaselineReceiverCore(&a));
}

CompareSessionResult compare_session(sim::EventLoop& loop, const RotatingVector& a,
                                     const RotatingVector& b, const sim::NetConfig& net,
                                     const CostModel& cost) {
  OPTREP_SPAN("vv.compare");
  // COMPARE rides the framed transport too: probes and verdicts are control
  // messages (every frame flushes), so framing only affects byte accounting.
  sim::FrameDuplex<VvMsg> duplex(&loop, net);
  duplex.a_to_b().set_msg_sizer(&frame_wire_bytes_single);
  duplex.b_to_a().set_msg_sizer(&frame_wire_bytes_single);
  duplex.a_to_b().set_frame_sizer(&frame_wire_bytes);
  duplex.b_to_a().set_frame_sizer(&frame_wire_bytes);
  const auto flush = [](const VvMsg& m) { return m.kind != VvMsg::Kind::kElem; };
  duplex.a_to_b().set_flush_after(flush);
  duplex.b_to_a().set_flush_after(flush);
  protocol::CompareCore ca(&a);
  protocol::CompareCore cb(&b);
  // COMPARE's binding is trivial (two counted sends per endpoint, no
  // speculation): a local pump suffices instead of a full CoreDriver.
  const auto drive = [&cost](protocol::CompareCore& core, sim::FrameLink<VvMsg>* tx,
                             const protocol::Event& ev) {
    protocol::Actions& acts = scratch_actions();
    acts.clear();
    core.step(ev, acts);
    for (const protocol::Action& act : acts) {
      if (act.type != protocol::Action::Type::kSend) continue;
      if (act.msg.kind == VvMsg::Kind::kProbe) {
        tx->send(act.msg, cost.compare_probe_bits(), wire_bytes_elem(false));
      } else {
        tx->send(act.msg, 1, 1);
      }
    }
  };
  duplex.a_to_b().set_receiver([&](const VvMsg& m) {
    drive(cb, &duplex.b_to_a(), protocol::Event::msg_arrival(m));
  });
  duplex.b_to_a().set_receiver([&](const VvMsg& m) {
    drive(ca, &duplex.a_to_b(), protocol::Event::msg_arrival(m));
  });
  const sim::Time t0 = loop.now();
  loop.schedule(t0, [&] {
    drive(ca, &duplex.a_to_b(), protocol::Event::start());
    drive(cb, &duplex.b_to_a(), protocol::Event::start());
  });
  const sim::Time t_end = loop.run();
  CompareSessionResult r;
  r.at_a = ca.decide();
  r.at_b = cb.decide();
  r.total_bits = duplex.a_to_b().stats().model_bits + duplex.b_to_a().stats().model_bits;
  r.duration = t_end - t0;
  return r;
}

}  // namespace optrep::vv
