// The transport-free session engine both TCP endpoints run.
//
// COMPARE and SYNCB/SYNCC/SYNCS are two-party protocols whose halves are the
// same on either end; the only asymmetry is which end moves the data. One
// SessionEngine runs one endpoint's half of one session at a time. It owns
// the session-private replica clone, the COMPARE core, the element sender or
// receiver core, the outgoing byte buffer with its element delta chain, and
// the phase machine
//
//   COMPARE ─▶ data sender   (stream elements, then END, await DONE)
//           ─▶ data receiver (feed the receiver core until END, send DONE)
//           ─▶ no-op         (END / DONE with nothing transferred)
//
// It never touches a socket. Its host — SyncClient's poll loop or Server's
// epoll reactor — writes the handshake records (HELLO / ACCEPT) itself,
// feeds the engine decoded stream items, drains out_data() to the wire, and
// supplies the two decisions that differ per endpoint:
//
//   gate()    runs before every record the engine emits. The client's fault
//             plan kills or stalls its connection here; the server's gate
//             always passes.
//   commit()  is the commit point: called once, on the data receiver, at a
//             clean END, with the reconciled clone (the §2.2 local update
//             already applied after a concurrent sync). Its status goes out
//             in the DONE record. The DONE record is gated first, and nothing
//             before commit() touches the host's live state, so a session cut
//             at any byte before its END leaves the receiver untouched.
//
// Nothing on a socket is revocable, so the cores run unframed (their TailView
// is always zero) and only sends and pump requests have a wire effect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "net/wire_stream.h"
#include "vv/order.h"
#include "vv/protocol/compare_core.h"
#include "vv/protocol/receiver_core.h"
#include "vv/protocol/sender_core.h"
#include "vv/rotating_vector.h"

namespace optrep::net {

class SessionEngine {
 public:
  // Pipelined sends per sender-pump dispatch, and the outgoing-buffer level
  // at which the pump pauses until the host drains the buffer.
  static constexpr std::uint32_t kBurst = 32;
  static constexpr std::size_t kWriteWatermark = 256 * 1024;

  class Host {
   public:
    // False cuts the session: the record is not written and every engine
    // call on this path returns false.
    virtual bool gate() { return true; }
    virtual DoneStatus commit(vv::RotatingVector& work) = 0;

   protected:
    ~Host() = default;
  };

  explicit SessionEngine(Host* host) : host_(host) {}
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  // The session-private clone; the host loads it before begin().
  vv::RotatingVector& work() { return work_; }

  // Open a session and send our COMPARE probe. The data sender streams the
  // elements and sends END: the client of a push or COMPARE session, the
  // server of a pull. `own_site` receives the §2.2 update after a concurrent
  // sync. All bool calls return false when the session ended early: the gate
  // cut it, or (breach() set) the peer broke the protocol.
  bool begin(SessionKind kind, bool data_sender, bool stop_and_wait, SiteId own_site);

  // One decoded item from the peer. Only messages, END and DONE belong to
  // the engine; any other record is a breach.
  bool on_item(const StreamDecoder::Item& item);

  // Run the sender pump until the core parks it or the buffer reaches the
  // watermark; a no-op unless can_pump().
  bool pump();
  bool pump_pending() const { return phase_ == Phase::kSend && pump_pending_; }
  bool can_pump() const { return pump_pending() && out_size() < kWriteWatermark; }

  // Outgoing bytes. Hosts append their handshake records to out().
  std::vector<std::uint8_t>& out() { return out_; }
  const std::uint8_t* out_data() const { return out_.data() + out_pos_; }
  std::size_t out_size() const { return out_.size() - out_pos_; }
  void consume(std::size_t n);

  bool active() const { return phase_ != Phase::kIdle; }  // between begin() and DONE
  const char* breach() const { return breach_; }
  vv::Ordering relation() const { return rel_; }  // our vector vs the peer's
  bool transfer() const { return transfer_; }
  DoneStatus done() const { return done_; }  // the DONE record's status
  std::uint64_t elems_sent() const { return snd_ ? snd_->elems_sent() : 0; }
  std::uint64_t elems_applied() const;

 private:
  enum class Phase : std::uint8_t {
    kIdle,       // no session: before begin(), or after the DONE exchange
    kCompare,    // our probe sent; awaiting the peer's probe and verdict
    kSend,       // data sender: pumping the element sender core
    kRecv,       // data receiver: feeding the receiver core
    kAwaitEnd,   // data receiver with nothing to receive
    kAwaitDone,  // our END sent; awaiting the peer's DONE
  };

  using Receiver = std::variant<vv::protocol::BasicReceiverCore,
                                vv::protocol::ConflictReceiverCore,
                                vv::protocol::SkipReceiverCore>;

  template <class Core>
  bool dispatch(Core& core, const vv::protocol::Event& ev);
  bool dispatch_receiver(const vv::protocol::Event& ev);
  bool on_msg(const vv::VvMsg& m);
  bool on_end();
  bool compare_done();
  bool step_sender(const vv::protocol::Event& ev);
  bool send_end();
  bool fail(const char* what);

  Host* host_;
  vv::RotatingVector work_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_{0};
  vv::FrameDeltaState chain_{};
  vv::protocol::Actions acts_;  // reused across dispatches

  SessionKind kind_{SessionKind::kCompare};
  bool data_sender_{false};
  bool stop_and_wait_{false};
  SiteId own_site_{0};
  Phase phase_{Phase::kIdle};
  std::optional<vv::protocol::CompareCore> cmp_;
  bool probe_seen_{false};
  std::optional<vv::protocol::ElementSenderCore> snd_;
  std::optional<Receiver> rx_;
  bool pump_pending_{false};
  bool transfer_{false};
  bool initially_concurrent_{false};
  vv::Ordering rel_{vv::Ordering::kEqual};
  DoneStatus done_{DoneStatus::kNoop};
  const char* breach_{nullptr};
};

}  // namespace optrep::net
