// Sans-I/O protocol core vocabulary.
//
// Every sync protocol in this repository — SYNCB/SYNCC/SYNCS, the two vector
// baselines and COMPARE (vv/protocol/), SYNCG and the full-graph baseline
// (graph/protocol/) — is implemented as a pure state machine with a single
// entry point, `step(event, actions)`: the core consumes one Event (session
// start, a wire message, a link-free notification, an abort) and appends
// zero or more Actions describing what the transport should do. The
// vocabulary is generic over the wire message (BasicEvent<Msg>,
// BasicAction<Msg>); Event/Action/Actions name the VvMsg instances. Cores
// never touch `sim::EventLoop`, `sim::FrameLink`, clocks, or tracing — all
// timing, framing, speculation bookkeeping, and observability live in the
// binding: one simulator driver (vv/core_driver.h) pumps every core, and
// net::SessionEngine pumps the vector cores over TCP. The same cores can be
// driven by an in-memory queue harness with no event loop at all, which is
// what the adversarial interleaving fuzz tests do.
//
// Time never appears here. Where the legacy actors scheduled continuations
// ("pump again when the link frees"), a core emits a scheduling Action and
// the binding owns the clock. Where the legacy sender inspected the link's
// speculative tail (framed pipelining, §3.1), the binding snapshots that
// tail into the Event as a TailView; the core reasons about counts only.
//
// Robustness contract: a core must tolerate ANY event sequence without
// aborting. Wire-triggered impossibilities (a stale SKIP in lockstep mode,
// an ACK in pipelined mode, a message kind the role never receives) are
// counted as protocol violations and ignored — under fault injection these
// are reachable states, not programming errors. OPTREP_CHECK remains only
// for genuine API misuse by the caller.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "vv/wire.h"

namespace optrep::vv::protocol {

// Snapshot of the speculative (revocable, not-yet-transmitting) tail of the
// sender's outgoing link at the instant a message arrived. Computed by the
// binding via FrameLink::peek_tail; meaningless (all zero) when unframed.
struct TailView {
  std::uint64_t elems{0};           // speculative ELEM messages queued
  std::uint64_t segment_finals{0};  // ...of which carry the segment bit
  bool halt{false};                 // a speculative end-of-vector HALT queued
};

enum class EventType : std::uint8_t {
  kStart,     // session begins; the core may emit its opening sends
  kMsg,       // a wire message arrived (msg, plus tail for HALT/SKIP)
  kLinkFree,  // a previously requested pump continuation fired
  kAbort,     // session torn down mid-flight (fault recovery): close state
};

template <class Msg>
struct BasicEvent {
  using Type = EventType;

  Type type{Type::kStart};
  Msg msg{};
  TailView tail{};

  static BasicEvent start() { return BasicEvent{Type::kStart, {}, {}}; }
  static BasicEvent msg_arrival(const Msg& m, TailView t = {}) {
    return BasicEvent{Type::kMsg, m, t};
  }
  static BasicEvent link_free() { return BasicEvent{Type::kLinkFree, {}, {}}; }
  static BasicEvent abort() { return BasicEvent{Type::kAbort, {}, {}}; }
};

// One action vocabulary for every message type.
enum class ActionType : std::uint8_t {
  kSend,            // hand msg to the link, committed at hand-off
  kSendRevocable,   // hand msg to the link as a speculative (revocable) send
  kRevokeTail,      // take back the link's speculative tail (core state
                    // already rewound from the TailView)
  kPumpWhenFree,    // park one kLinkFree continuation at the link-free time
                    // reached by the preceding sends
  kCaptureResume,   // remember max(now, link-free) as the resume instant —
                    // emitted before a send that must not delay the resume
  kRepumpAtResume,  // cancel the parked continuation; re-park at the
                    // captured resume instant
  kFinished,        // this side is done: cancel continuations, stamp time
  kTraceApplied,    // receiver-side semantic trace events; msg carries the
  kTraceRedundant,  //   element being classified (no transport effect)
  kTraceStraggler,
};

template <class Msg>
struct BasicAction {
  using Type = ActionType;

  Type type{Type::kSend};
  Msg msg{};
};

// Reused across dispatches by the binding; cores append only.
template <class Msg>
using BasicActions = std::vector<BasicAction<Msg>>;

template <class Msg>
void emit(BasicActions<Msg>& out, ActionType type,
          const std::type_identity_t<Msg>& msg = {}) {
  out.push_back(BasicAction<Msg>{type, msg});
}

using Event = BasicEvent<VvMsg>;
using Action = BasicAction<VvMsg>;
using Actions = BasicActions<VvMsg>;

// Causal context carried by protocol actions (obs/causal.h): an element's
// (site, value) pair IS the update identity the repl layer derives trace ids
// from, so cores propagate causal context in every kSend/kTrace* action
// without a single extra wire bit. True when the action's message carries
// update state the receiver can attribute to an originating site (ELEMs and
// COMPARE probes); control messages (HALT/SKIP/SKIPPED/ACK/VERDICT) carry
// protocol arguments instead.
inline bool carries_update_context(const VvMsg& m) {
  return m.kind == VvMsg::Kind::kElem || m.kind == VvMsg::Kind::kProbe;
}

// Counters shared by all receiver cores, harvested into the SyncReport.
// (The receiver's finish *time* is transport state and lives in the binding.)
struct ReceiverCounters {
  std::uint64_t applied{0};
  std::uint64_t redundant{0};
  std::uint64_t straggler{0};
  std::uint64_t after_halt{0};
  std::uint64_t skip_msgs{0};
  std::uint64_t segments_skipped{0};
  std::uint64_t acks{0};
  std::uint64_t violations{0};  // tolerated protocol violations (faults/fuzz)
};

}  // namespace optrep::vv::protocol
