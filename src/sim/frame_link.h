// Simulated unidirectional network links with frame batching.
//
// A link has a propagation latency and a (possibly infinite) bandwidth and
// delivers messages FIFO: a message handed to the link at time t starts
// transmitting when the link is free, occupies the link for
// model_bits/bandwidth seconds, and arrives latency seconds after its last
// bit left. Senders that want the paper's network pipelining (§3.1) stream
// by sending one message and scheduling their continuation at the returned
// free time; this is what lets a HALT cancel not-yet-transmitted elements,
// so the β = bandwidth·rtt overshoot of pipelining emerges from the model.
//
// A FrameLink coalesces back-to-back same-direction messages into wire
// frames: one event-loop dispatch delivers (and one frame-sizer call encodes)
// a whole run of messages, instead of one each. Frames close on
//   - a flush-after control message (HALT/SKIP/SKIPPED/ACK — see the
//     flush_after predicate the session layer installs),
//   - a direction turn (the reverse link transmitting), or
//   - the NetConfig::frame_budget message cap.
//
// Timing stays *per message* whatever the budget. Coalescing only merges the
// event *dispatches*: a delivery event walks every queued message whose arrival
// precedes the loop's next event, advancing the clock to each message's exact
// arrival (EventLoop::advance_to). At equal times queued deliveries run
// before other events, which reproduces the unframed schedule order (those
// deliveries were scheduled at send time, i.e. with smaller event ids).
//
// Speculation and revocation. A pipelined sender may hand the link a burst of
// messages marked `revocable` in one dispatch instead of pumping one per
// link-free event. The §3.1 semantics — a HALT cancels elements not yet
// transmitted, so overshoot is β = bandwidth·rtt — are preserved by
// cancel_tail(): when the reverse control arrives, it revokes exactly the
// tail whose transmission start lies strictly in the future (a message whose
// first bit leaves at the control's arrival instant is already committed,
// matching the unframed pump's tie behavior), rolls back link-free time and
// the byte/bit accounting, and hands the revoked messages back to the sender
// so it can rewind its cursor. Reactive messages (acks, SKIPPED) are sent
// non-revocable: the unframed model commits them at hand-off.
//
// Accounting: LinkStats::{messages, model_bits, wire_bytes} stay the exact
// per-message figures (§3.3 accounting is untouched by framing — asserted by
// tests). frames/framed_wire_bytes describe the batched realistic encoding:
// the installed FrameSizer prices each closed frame over the messages
// actually transmitted. With frame_budget == 0 the link runs unframed: one
// delivery event and one hand-off tap per message, every message its own
// frame.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/event_loop.h"

namespace optrep::sim {

// One direction's traffic: what a link carried, and what a session report
// (vv::SyncReport, graph::GraphSyncReport) says each direction carried.
struct LinkStats {
  std::uint64_t messages{0};
  std::uint64_t model_bits{0};   // §3.3 cost-model size
  std::uint64_t wire_bytes{0};   // realistic byte-aligned encoding
  std::uint64_t frames{0};       // coalesced wire frames (== messages unframed)
  std::uint64_t framed_wire_bytes{0};  // realistic bytes under frame batching

  LinkStats& operator+=(const LinkStats& o) {
    messages += o.messages;
    model_bits += o.model_bits;
    wire_bytes += o.wire_bytes;
    frames += o.frames;
    framed_wire_bytes += o.framed_wire_bytes;
    return *this;
  }
};

struct NetConfig {
  // Deterministic per-message fault injection (sim/fault_link.h). Rates are
  // independent probabilities rolled at delivery time, in this order:
  // corrupt → drop → duplicate → reorder. All zero (the default) disables
  // injection entirely — no generator is constructed and the delivery path
  // is bit-identical to the fault-free build.
  struct FaultConfig {
    double drop{0};       // message discarded
    double duplicate{0};  // a second copy delivered right after the first
    double reorder{0};    // delivery held back past later arrivals
    double corrupt{0};    // payload bit-flipped; detected and discarded (CRC)
    std::uint64_t seed{1};

    bool enabled() const {
      return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0;
    }
  };

  Time latency_s{0};
  double bandwidth_bits_per_s{std::numeric_limits<double>::infinity()};
  // Maximum messages coalesced into one wire frame by FrameLink; 0 disables
  // framing (one frame, one encode, one delivery event per message).
  std::uint32_t frame_budget{0};
  FaultConfig faults{};

  Time rtt() const { return 2 * latency_s; }
};

template <class Msg>
class FrameLink {
 public:
  using Handler = std::function<void(const Msg&)>;
  using Tap = std::function<void(Time send_time, const Msg&, std::uint64_t model_bits)>;
  // Observes each message at its delivery instant (arrival time), immediately
  // before the receiver handler — and therefore before any interposed fault
  // injector passes its verdict. Gives causal tracing its send → receive
  // edge without wrapping the delivery handler (which would heap-allocate a
  // std::function per session).
  using DeliveryTap = std::function<void(Time arrive_time, const Msg&)>;
  // Realistic size in bytes of one wire frame carrying `msgs` in order.
  using FrameSizer = std::function<std::uint64_t(const std::vector<Msg>&)>;
  // Size of a single-message frame — the frame_budget == 0 path prices each
  // message without touching the frame scratch buffer (keeps the legacy
  // session path allocation-free).
  using MsgSizer = std::function<std::uint64_t(const Msg&)>;
  // True for messages that force a frame flush immediately after themselves.
  using FlushAfter = std::function<bool(const Msg&)>;

  FrameLink(EventLoop* loop, NetConfig cfg) : loop_(loop), cfg_(cfg) {
    OPTREP_CHECK(loop != nullptr);
  }

  // Scheduled delivery closures capture `this`; a moved-from link would leave
  // them dangling, so a FrameLink is pinned to its construction address.
  FrameLink(const FrameLink&) = delete;
  FrameLink& operator=(const FrameLink&) = delete;
  FrameLink(FrameLink&&) = delete;
  FrameLink& operator=(FrameLink&&) = delete;

  void set_receiver(Handler h) { deliver_ = std::move(h); }
  void set_tap(Tap t) { tap_ = std::move(t); }
  void set_delivery_tap(DeliveryTap t) { recv_tap_ = std::move(t); }
  void set_frame_sizer(FrameSizer s) { sizer_ = std::move(s); }
  void set_msg_sizer(MsgSizer s) { msg_sizer_ = std::move(s); }
  void set_flush_after(FlushAfter f) { flush_after_ = std::move(f); }
  // The opposite-direction link; our transmissions close its open frame.
  void set_reverse(FrameLink* peer) { reverse_ = peer; }

  // Queue msg for transmission; returns the time the link frees. `revocable`
  // marks a speculative send that a later cancel_tail may take back.
  Time send(const Msg& msg, std::uint64_t model_bits, std::uint64_t wire_bytes,
            bool revocable = false) {
    OPTREP_CHECK_MSG(deliver_ != nullptr, "link has no receiver");
    if (reverse_ != nullptr) reverse_->close_frame();  // direction turn
    const Time start = std::max(loop_->now(), free_at_);
    const Time finish = start + transmit_seconds(model_bits);
    const Time arrive = finish + cfg_.latency_s;
    free_at_ = finish;
    stats_.messages += 1;
    stats_.model_bits += model_bits;
    stats_.wire_bytes += wire_bytes;
    if (!framed()) {
      // Unframed path: per-message delivery event and hand-off tap; each
      // message is priced as its own frame.
      if (tap_) tap_(loop_->now(), msg, model_bits);
      stats_.frames += 1;
      stats_.framed_wire_bytes += msg_sizer_ ? msg_sizer_(msg) : wire_bytes;
      loop_->schedule(arrive, [this, msg] {
        if (recv_tap_) recv_tap_(loop_->now(), msg);
        deliver_(msg);
      });
      return free_at_;
    }
    if (tap_ && !revocable) tap_(loop_->now(), msg, model_bits);
    pending_.push_back(Pending{msg, model_bits, wire_bytes, start, finish,
                               arrive, revocable, false});
    ++open_count_;
    if ((flush_after_ && flush_after_(msg)) || open_count_ >= cfg_.frame_budget) {
      pending_.back().end_of_frame = true;
      open_count_ = 0;
    }
    if (!delivery_scheduled_) schedule_delivery();
    return free_at_;
  }

  // Close the currently-open frame, if any: subsequent sends start a new one.
  // Called on direction turns and at end of session; if every message of the
  // open frame has already been delivered, the frame is priced immediately.
  void close_frame() {
    open_count_ = 0;
    if (!pending_empty()) {
      pending_.back().end_of_frame = true;
    } else if (!frame_scratch_.empty()) {
      account_frame();
    }
  }

  // Iterate the messages cancel_tail would revoke right now (newest first)
  // without revoking them — a sender uses this to reconstruct the committed,
  // actually-transmitted protocol state before deciding on a revocation.
  template <class Fn>
  void peek_tail(Fn&& fn) const {
    const Time now = loop_->now();
    for (std::size_t i = pending_.size(); i > head_; --i) {
      const Pending& p = pending_[i - 1];
      if (!p.revocable || p.start <= now) break;
      fn(p.msg);
    }
  }

  // Revoke the speculative not-yet-transmitting tail of the queue: pops
  // messages from the back while they are revocable and their transmission
  // start lies strictly after now. Calls on_revoked(msg) per revoked message,
  // newest first (so a sender can rewind its cursor step by step). Returns
  // the number revoked. Undoes the per-message stats and rolls the link-free
  // time back to the last surviving transmission.
  template <class Fn>
  std::size_t cancel_tail(Fn&& on_revoked) {
    const Time now = loop_->now();
    std::size_t revoked = 0;
    while (!pending_empty() && pending_.back().revocable &&
           pending_.back().start > now) {
      Pending& p = pending_.back();
      stats_.messages -= 1;
      stats_.model_bits -= p.model_bits;
      stats_.wire_bytes -= p.wire_bytes;
      on_revoked(p.msg);
      pending_.pop_back();
      ++revoked;
    }
    if (revoked == 0) return 0;
    free_at_ = pending_empty() ? last_delivered_finish_ : pending_.back().finish;
    if (pending_empty()) {
      pending_.clear();
      head_ = 0;
      if (delivery_scheduled_) {
        loop_->cancel(delivery_event_);
        delivery_scheduled_ = false;
      }
    }
    close_frame();
    return revoked;
  }

  bool framed() const { return cfg_.frame_budget > 0; }
  Time free_at() const { return free_at_; }
  const LinkStats& stats() const { return stats_; }
  const NetConfig& config() const { return cfg_; }
  EventLoop* loop() const { return loop_; }

 private:
  struct Pending {
    Msg msg;
    std::uint64_t model_bits;
    std::uint64_t wire_bytes;
    Time start;    // transmission start
    Time finish;   // transmission end (link frees)
    Time arrive;   // delivery time
    bool revocable;
    bool end_of_frame;
  };

  Time transmit_seconds(std::uint64_t bits) const {
    if (cfg_.bandwidth_bits_per_s == std::numeric_limits<double>::infinity()) return 0;
    OPTREP_CHECK(cfg_.bandwidth_bits_per_s > 0);
    return static_cast<double>(bits) / cfg_.bandwidth_bits_per_s;
  }

  // pending_ is a vector drained from head_: pop_front is an index bump, and
  // the storage resets (and is reused) every time the queue runs dry, so the
  // steady-state send path never touches the allocator.
  bool pending_empty() const { return head_ == pending_.size(); }

  void schedule_delivery() {
    delivery_scheduled_ = true;
    delivery_event_ =
        loop_->schedule(pending_[head_].arrive, [this] { on_delivery(); });
  }

  void on_delivery() {
    delivery_scheduled_ = false;
    while (!pending_empty()) {
      // Deliver every message arriving no later than the loop's next event
      // (ties resolve deliveries-first — the unframed schedule order), then
      // park one event at the next arrival.
      if (pending_[head_].arrive > loop_->next_event_time()) {
        schedule_delivery();
        return;
      }
      Pending p = std::move(pending_[head_]);
      ++head_;
      if (pending_empty()) {
        pending_.clear();
        head_ = 0;
      }
      loop_->advance_to(p.arrive);
      last_delivered_finish_ = p.finish;
      // Speculative messages are tapped at delivery commit (revoked ones must
      // not appear in transcripts), stamped with their transmission start —
      // the instant the unframed pump would have handed them to the link.
      if (tap_ && p.revocable) tap_(p.start, p.msg, p.model_bits);
      if (recv_tap_) recv_tap_(p.arrive, p.msg);
      frame_scratch_.push_back(p.msg);
      frame_bytes_sum_ += p.wire_bytes;
      if (p.end_of_frame) account_frame();
      deliver_(p.msg);
    }
  }

  void account_frame() {
    stats_.frames += 1;
    stats_.framed_wire_bytes += sizer_ ? sizer_(frame_scratch_) : frame_bytes_sum_;
    frame_scratch_.clear();
    frame_bytes_sum_ = 0;
  }

  EventLoop* loop_;
  NetConfig cfg_;
  Time free_at_{0};
  Time last_delivered_finish_{0};
  LinkStats stats_;
  Handler deliver_;
  Tap tap_;
  DeliveryTap recv_tap_;
  FrameSizer sizer_;
  MsgSizer msg_sizer_;
  FlushAfter flush_after_;
  FrameLink* reverse_{nullptr};

  std::vector<Pending> pending_;
  std::size_t head_{0};
  std::uint32_t open_count_{0};
  bool delivery_scheduled_{false};
  EventLoop::EventId delivery_event_{0};
  std::vector<Msg> frame_scratch_;       // delivered messages of the open frame
  std::uint64_t frame_bytes_sum_{0};     // their unframed bytes (sizer fallback)
};

// A bidirectional framed channel: the two directions are cross-linked so
// that transmitting one way closes the open frame of the other (a direction
// turn flushes).
template <class Msg>
class FrameDuplex {
 public:
  FrameDuplex(EventLoop* loop, NetConfig cfg) : a_to_b_(loop, cfg), b_to_a_(loop, cfg) {
    a_to_b_.set_reverse(&b_to_a_);
    b_to_a_.set_reverse(&a_to_b_);
  }

  FrameLink<Msg>& a_to_b() { return a_to_b_; }
  FrameLink<Msg>& b_to_a() { return b_to_a_; }

 private:
  FrameLink<Msg> a_to_b_;
  FrameLink<Msg> b_to_a_;
};

}  // namespace optrep::sim
