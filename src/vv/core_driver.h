// The one simulator driver for the sans-I/O protocol cores (protocol/core.h).
//
// CoreDriver pumps one core over one direction of a simulated framed link:
// it executes the core's actions (sized counted sends, revocations, parked
// continuations, trace markers) and feeds arriving messages back as events.
// This is the only place protocol state meets the simulated clock — the
// vector sessions (vv/session.cc) and the graph sessions
// (graph/sync_graph.cc) both run their cores through it.
//
// What differs per protocol lives in the session's wiring, which supplies:
//   sim::EventLoop* loop() const;                     the clock
//   SendSize size(const Msg&) const;                  bits and bytes of one
//                                                     send (kIdeal's free ACK
//                                                     included)
//   protocol::TailView tail(const Msg&, const sim::FrameLink<Msg>&) const;
//                                                     the speculative tail of
//                                                     the outgoing link, as
//                                                     seen by an arrival
//   void trace(protocol::ActionType, const Msg&);     the core's kTrace*
//                                                     actions
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/event_loop.h"
#include "sim/frame_link.h"
#include "vv/protocol/core.h"

namespace optrep::vv {

// Size of one send: §3.3 model bits and realistic bytes.
struct SendSize {
  std::uint64_t bits{0};
  std::uint64_t bytes{0};
};

// Scratch action buffer shared by every driver of one message type on this
// thread: dispatches never nest (links deliver via scheduled events, never
// synchronously), and the retained capacity keeps steady-state sessions off
// the allocator.
template <class Msg>
protocol::BasicActions<Msg>& scratch_actions() {
  static thread_local protocol::BasicActions<Msg> acts;
  return acts;
}

template <class Msg, class Core, class Wiring>
class CoreDriver {
 public:
  using Event = protocol::BasicEvent<Msg>;

  CoreDriver(Wiring* wiring, sim::FrameLink<Msg>* tx, Core core)
      : wiring_(wiring), loop_(wiring->loop()), tx_(tx), core_(std::move(core)) {}

  // Parked continuations capture `this`: pinned to the construction address.
  CoreDriver(const CoreDriver&) = delete;
  CoreDriver& operator=(const CoreDriver&) = delete;

  Core& core() { return core_; }
  const Core& core() const { return core_; }

  void start() { dispatch(Event::start()); }
  void abort() { dispatch(Event::abort()); }
  void on_message(const Msg& m) { dispatch(Event::msg_arrival(m, wiring_->tail(m, *tx_))); }

  sim::Time done_at() const { return done_at_; }

 private:
  void on_pump() {
    pending_ = 0;
    dispatch(Event::link_free());
  }

  sim::Time send(const Msg& m, bool revocable) {
    const SendSize size = wiring_->size(m);
    return tx_->send(m, size.bits, size.bytes, revocable);
  }

  void dispatch(const Event& ev) {
    protocol::BasicActions<Msg>& acts = scratch_actions<Msg>();
    acts.clear();
    core_.step(ev, acts);
    // `free` tracks the link-free time reached by this dispatch's sends —
    // where kPumpWhenFree parks the continuation (the unframed pump's
    // schedule, and the last burst message's free time when framed).
    sim::Time free = loop_->now();
    for (const protocol::BasicAction<Msg>& a : acts) {
      switch (a.type) {
        case protocol::ActionType::kSend:
          free = send(a.msg, /*revocable=*/false);
          break;
        case protocol::ActionType::kSendRevocable:
          free = send(a.msg, /*revocable=*/true);
          break;
        case protocol::ActionType::kRevokeTail:
          // The core already rewound its cursor from the event's TailView.
          tx_->cancel_tail([](const Msg&) {});
          break;
        case protocol::ActionType::kPumpWhenFree:
          pending_ = loop_->schedule(free, [this] { on_pump(); });
          break;
        case protocol::ActionType::kCaptureResume:
          resume_ = std::max(loop_->now(), tx_->free_at());
          break;
        case protocol::ActionType::kRepumpAtResume:
          if (pending_ != 0) loop_->cancel(pending_);
          pending_ = loop_->schedule(resume_, [this] { on_pump(); });
          break;
        case protocol::ActionType::kFinished:
          if (done_at_ == 0) done_at_ = loop_->now();
          if (pending_ != 0) {
            loop_->cancel(pending_);
            pending_ = 0;
          }
          break;
        case protocol::ActionType::kTraceApplied:
        case protocol::ActionType::kTraceRedundant:
        case protocol::ActionType::kTraceStraggler:
          wiring_->trace(a.type, a.msg);
          break;
      }
    }
  }

  Wiring* wiring_;
  sim::EventLoop* loop_;
  sim::FrameLink<Msg>* tx_;
  Core core_;
  sim::EventLoop::EventId pending_{0};
  sim::Time resume_{0};
  sim::Time done_at_{0};
};

}  // namespace optrep::vv
