// In-memory queue harness for any sans-I/O sender/receiver core pair.
//
// No event loop, no links, no clocks: the two cores are pumped over lossy
// FIFO queues that drop, duplicate, reorder and corrupt messages at delivery
// time, with every interleaving of forward delivery, reverse delivery and
// pump firing reachable. The vector cores (protocol_core_test.cc) and the
// graph cores (graph_core_test.cc) share it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>

#include "common/rng.h"
#include "vv/protocol/core.h"

namespace optrep::test {

struct FaultPlan {
  double drop{0};
  double dup{0};
  double reorder{0};
  double corrupt{0};
};

// Pumps one sender core and one receiver core over two lossy FIFO queues
// until no deliverable event remains (drained queues, no parked pump).
template <class Msg, class SenderCore, class ReceiverCore>
class CoreHarness {
 public:
  using Event = vv::protocol::BasicEvent<Msg>;
  using Actions = vv::protocol::BasicActions<Msg>;
  using ActionType = vv::protocol::ActionType;

  CoreHarness(SenderCore sender, ReceiverCore receiver, Rng& rng, FaultPlan faults)
      : sender_(std::move(sender)),
        receiver_(std::move(receiver)),
        rng_(rng),
        faults_(faults) {}

  void run() {
    Actions acts;
    sender_.step(Event::start(), acts);
    dispatch_sender(acts);
    std::uint64_t steps = 0;
    while (steps++ < 200000) {
      // Pick uniformly among the available moves so every interleaving of
      // forward delivery, reverse delivery and pump firing is reachable.
      int moves[3];
      int n = 0;
      if (!fwd_.empty()) moves[n++] = 0;
      if (!rev_.empty()) moves[n++] = 1;
      if (pump_pending_) moves[n++] = 2;
      if (n == 0) break;
      switch (moves[rng_.range(0, n - 1)]) {
        case 0: deliver(fwd_, /*to_receiver=*/true); break;
        case 1: deliver(rev_, /*to_receiver=*/false); break;
        case 2: {
          pump_pending_ = false;
          Actions out;
          sender_.step(Event::link_free(), out);
          dispatch_sender(out);
          break;
        }
      }
    }
    EXPECT_LT(steps, 200000u) << "harness failed to quiesce (livelock)";
  }

  const SenderCore& sender() const { return sender_; }
  const ReceiverCore& receiver() const { return receiver_; }

 private:
  void deliver(std::deque<Msg>& q, bool to_receiver) {
    std::size_t idx = 0;
    if (q.size() > 1 && rng_.chance(faults_.reorder)) idx = 1;  // jump the queue
    Msg m = q[idx];
    // The fault model assumes a frame checksum: every in-flight corruption is
    // detected and discarded (silent corruption is out of scope), so at this
    // layer corrupt behaves like drop.
    if (rng_.chance(faults_.corrupt) || rng_.chance(faults_.drop)) {
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
      return;
    }
    if (!rng_.chance(faults_.dup)) {
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));  // else redeliver later
    }
    Actions out;
    if (to_receiver) {
      receiver_.step(Event::msg_arrival(m), out);
      dispatch_receiver(out);
    } else {
      sender_.step(Event::msg_arrival(m), out);
      dispatch_sender(out);
    }
  }

  void dispatch_sender(const Actions& acts) {
    for (const auto& a : acts) {
      switch (a.type) {
        case ActionType::kSend:
        case ActionType::kSendRevocable:
          fwd_.push_back(a.msg);
          break;
        case ActionType::kPumpWhenFree:
        case ActionType::kRepumpAtResume:
          pump_pending_ = true;
          break;
        default:
          break;  // revoke/capture/finish/traces: transport concerns
      }
    }
  }

  void dispatch_receiver(const Actions& acts) {
    for (const auto& a : acts) {
      if (a.type == ActionType::kSend) rev_.push_back(a.msg);
    }
  }

  SenderCore sender_;
  ReceiverCore receiver_;
  Rng& rng_;
  FaultPlan faults_;
  std::deque<Msg> fwd_, rev_;
  bool pump_pending_{false};
};

}  // namespace optrep::test
