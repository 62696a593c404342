#include "net/session_engine.h"

namespace optrep::net {

namespace {

using vv::protocol::Action;
using vv::protocol::Event;

// Does the element transfer run at all? `receiver_rel` is the receiver's
// COMPARE verdict (receiver vector vs sender vector): a strict predecessor
// always syncs; concurrent replicas sync under CRV/SRV, while SYNCB cannot
// reconcile ‖ and the session degrades to a no-op (§2.2 / sync_with_recovery
// BRV note). kEqual / kAfter mean the receiver already covers the sender.
bool transfer_needed(vv::Ordering receiver_rel, vv::VectorKind kind) {
  return receiver_rel == vv::Ordering::kBefore ||
         (receiver_rel == vv::Ordering::kConcurrent && kind != vv::VectorKind::kBrv);
}

}  // namespace

void SessionEngine::consume(std::size_t n) {
  out_pos_ += n;
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
}

std::uint64_t SessionEngine::elems_applied() const {
  if (!rx_) return 0;
  return std::visit([](const vv::protocol::ReceiverCoreBase& c) { return c.counters().applied; },
                    *rx_);
}

bool SessionEngine::begin(SessionKind kind, bool data_sender, bool stop_and_wait,
                          SiteId own_site) {
  kind_ = kind;
  data_sender_ = data_sender;
  stop_and_wait_ = stop_and_wait;
  own_site_ = own_site;
  chain_ = {};  // session boundary: the peer's decoder resets at HELLO/ACCEPT
  snd_.reset();
  rx_.reset();
  probe_seen_ = false;
  pump_pending_ = false;
  transfer_ = false;
  initially_concurrent_ = false;
  rel_ = vv::Ordering::kEqual;
  done_ = DoneStatus::kNoop;
  breach_ = nullptr;
  phase_ = Phase::kCompare;
  cmp_.emplace(&work_);
  return dispatch(*cmp_, Event::start());
}

template <class Core>
bool SessionEngine::dispatch(Core& core, const Event& ev) {
  acts_.clear();
  core.step(ev, acts_);
  for (const Action& a : acts_) {
    if (a.type == Action::Type::kPumpWhenFree) {
      pump_pending_ = true;
    } else if (a.type == Action::Type::kSend || a.type == Action::Type::kSendRevocable) {
      if (!host_->gate()) return false;
      vv::frame_encode_msg(out_, a.msg, &chain_);
    }
  }
  return true;
}

bool SessionEngine::dispatch_receiver(const Event& ev) {
  return std::visit([&](auto& core) { return dispatch(core, ev); }, *rx_);
}

bool SessionEngine::on_item(const StreamDecoder::Item& item) {
  switch (item.type) {
    case StreamDecoder::ItemType::kMsg:
      return on_msg(item.msg);
    case StreamDecoder::ItemType::kEnd:
      return on_end();
    case StreamDecoder::ItemType::kDone:
      if (phase_ != Phase::kAwaitDone) return fail("unexpected DONE");
      done_ = static_cast<DoneStatus>(item.status);
      phase_ = Phase::kIdle;
      return true;
    default:
      return fail("unexpected control record");
  }
}

bool SessionEngine::on_msg(const vv::VvMsg& m) {
  switch (phase_) {
    case Phase::kCompare:
      if (!dispatch(*cmp_, Event::msg_arrival(m))) return false;  // our verdict on their probe
      if (m.kind == vv::VvMsg::Kind::kProbe) probe_seen_ = true;
      // Complete = we answered their probe AND hold their verdict on ours.
      return probe_seen_ && cmp_->complete() ? compare_done() : true;
    case Phase::kRecv:
      return dispatch_receiver(Event::msg_arrival(m));  // stop-and-wait ACKs, SYNCS SKIPs
    case Phase::kSend:
      return step_sender(Event::msg_arrival(m));
    default:
      return true;  // stray message: tolerated (protocol robustness contract)
  }
}

bool SessionEngine::compare_done() {
  rel_ = cmp_->decide();
  const vv::VectorKind vk = vector_kind_of(kind_);
  const bool sync = kind_ != SessionKind::kCompare;
  if (data_sender_) {
    // The peer receives, so its relation (the flip of ours) gates the transfer.
    if (!sync || !transfer_needed(vv::flip(rel_), vk)) return send_end();
    transfer_ = true;
    vv::protocol::ElementSenderCore::Config cfg;
    cfg.skip_enabled = vk == vv::VectorKind::kSrv;
    cfg.pipelined = !stop_and_wait_;
    cfg.burst = stop_and_wait_ ? 1 : kBurst;
    snd_.emplace(cfg, &work_);
    phase_ = Phase::kSend;
    return step_sender(Event::start());
  }
  if (!sync || !transfer_needed(rel_, vk)) {
    phase_ = Phase::kAwaitEnd;  // =, covered, or the SYNCB ‖ degrade
    return true;
  }
  transfer_ = true;
  initially_concurrent_ = rel_ == vv::Ordering::kConcurrent;
  const bool pipelined = !stop_and_wait_;
  switch (vk) {
    case vv::VectorKind::kBrv:
      rx_.emplace(std::in_place_type<vv::protocol::BasicReceiverCore>, pipelined, &work_);
      break;
    case vv::VectorKind::kCrv:
      rx_.emplace(std::in_place_type<vv::protocol::ConflictReceiverCore>, pipelined, &work_,
                  initially_concurrent_);
      break;
    case vv::VectorKind::kSrv:
      rx_.emplace(std::in_place_type<vv::protocol::SkipReceiverCore>, pipelined, &work_,
                  initially_concurrent_);
      break;
  }
  phase_ = Phase::kRecv;
  return dispatch_receiver(Event::start());
}

bool SessionEngine::step_sender(const Event& ev) {
  if (!dispatch(*snd_, ev)) return false;
  if (!snd_->done()) return true;
  pump_pending_ = false;
  return send_end();
}

bool SessionEngine::pump() {
  while (can_pump()) {
    pump_pending_ = false;
    if (!step_sender(Event::link_free())) return false;
  }
  return true;
}

bool SessionEngine::send_end() {
  if (!host_->gate()) return false;
  put_end(out_);
  phase_ = Phase::kAwaitDone;
  return true;
}

bool SessionEngine::on_end() {
  if (phase_ != Phase::kRecv && phase_ != Phase::kAwaitEnd) return fail("unexpected END");
  if (!host_->gate()) return false;  // DONE is gated before the commit point
  done_ = DoneStatus::kNoop;
  if (phase_ == Phase::kRecv) {
    if (initially_concurrent_) work_.record_update(own_site_);  // §2.2
    done_ = host_->commit(work_);
  }
  put_done(out_, done_);
  phase_ = Phase::kIdle;
  return true;
}

bool SessionEngine::fail(const char* what) {
  breach_ = what;
  return false;
}

}  // namespace optrep::net
