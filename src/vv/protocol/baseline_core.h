// Sans-I/O cores for the baseline protocols: the traditional full-vector
// transfer and the Singhal–Kshemkalyani incremental transfer [23]. Both ship
// a precomputed element set (the caller decides full vs delta) and join at
// the receiver; the send set is known upfront, so the sender emits everything
// on kStart and the link's FIFO pacing models transmission time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "vv/protocol/core.h"
#include "vv/version_vector.h"

namespace optrep::vv::protocol {

class BaselineSenderCore {
 public:
  explicit BaselineSenderCore(const std::vector<std::pair<SiteId, std::uint64_t>>* to_send)
      : to_send_(to_send) {}

  void step(const Event& ev, Actions& out) {
    if (ev.type != Event::Type::kStart || done_) return;
    for (const auto& [site, value] : *to_send_) {
      VvMsg m;
      m.kind = VvMsg::Kind::kElem;
      m.site = site;
      m.value = value;
      emit(out, Action::Type::kSend, m);
    }
    emit(out, Action::Type::kSend, VvMsg{.kind = VvMsg::Kind::kHalt});
    done_ = true;
  }

  std::uint64_t elems_sent() const { return to_send_->size(); }
  std::uint64_t violations() const { return 0; }  // receives nothing

 private:
  const std::vector<std::pair<SiteId, std::uint64_t>>* to_send_;
  bool done_{false};
};

class BaselineReceiverCore {
 public:
  explicit BaselineReceiverCore(VersionVector* a) : a_(a) {}

  void step(const Event& ev, Actions& out) {
    if (ev.type == Event::Type::kAbort) {
      finished_ = true;
      return;
    }
    if (ev.type != Event::Type::kMsg) return;
    const VvMsg& m = ev.msg;
    if (m.kind == VvMsg::Kind::kHalt) {
      if (!finished_) {
        finished_ = true;
        emit(out, Action::Type::kFinished);
      }
      return;
    }
    if (m.kind != VvMsg::Kind::kElem) {
      ++c_.violations;
      return;
    }
    if (m.value > a_->value(m.site)) {
      a_->set(m.site, m.value);
      ++c_.applied;
      emit(out, Action::Type::kTraceApplied, m);
    } else {
      ++c_.redundant;
      emit(out, Action::Type::kTraceRedundant, m);
    }
  }

  const ReceiverCounters& counters() const { return c_; }
  bool finished() const { return finished_; }

 private:
  VersionVector* a_;
  bool finished_{false};
  ReceiverCounters c_;
};

}  // namespace optrep::vv::protocol
