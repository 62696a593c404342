// Structured protocol tracing: typed events in a bounded ring.
//
// A TraceEvent is the one record of a protocol occurrence worth auditing —
// element sent/applied/redundant, SKIP issued/honored, HALT, ack, session
// begin/end — stamped with simulated time and a session id. The same record,
// with `fault` set, is how the flight recorder (obs/flight_recorder.h) notes
// what fault injection did to a message.
//
// A Tracer is an obs::Ring of TraceEvents (obs/ring.h): allocated once,
// overwriting the oldest event when full and counting the drops, so
// truncation is always visible in exported artifacts (see obs/export.h).
// Tracer::record is allocation-free.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.h"
#include "obs/ring.h"

namespace optrep::obs {

enum class TraceEventType : std::uint8_t {
  kSessionBegin,    // a synchronization session started
  kElemSent,        // sender put one vector element on the wire
  kElemApplied,     // receiver wrote a new value (counts toward |Δ|)
  kElemRedundant,   // receiver processed a known element pre-halt (|Γ|)
  kElemStraggler,   // known element ignored while a skip was pending
  kSkipIssued,      // SRV receiver requested a segment skip
  kSkipHonored,     // SRV sender elided a segment (observed γ)
  kHalt,            // negative/stop response or end-of-vector marker
  kAck,             // stop-and-wait acknowledgement
  kProbe,           // COMPARE probe element
  kVerdict,         // COMPARE domination bit
  kSessionEnd,      // session reached quiescence; `bits` carries total bits
};

std::string_view to_string(TraceEventType t);

// What fault injection did to the message an event describes. kNone for
// ordinary wire events; kDecodeError marks a corruption the typed codec
// itself rejected (the subset of kCorrupted the checksum model need not
// catch).
enum class FlightFault : std::uint8_t {
  kNone,
  kDropped,
  kDuplicated,
  kReordered,
  kCorrupted,
  kDecodeError,
};

std::string_view to_string(FlightFault f);

struct TraceEvent {
  double at{0};              // simulated time of the occurrence
  std::uint64_t session{0};  // session id (0 = outside any session)
  TraceEventType type{TraceEventType::kElemSent};
  bool forward{true};        // pertains to the sender→receiver direction
  FlightFault fault{FlightFault::kNone};  // injected fault (flight recorder)
  SiteId site{};             // element site, when applicable
  std::uint64_t value{0};    // element value / SKIP segment index
  std::uint64_t bits{0};     // model bits charged (wire events), else 0
};

class Tracer : public Ring<TraceEvent> {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit Tracer(std::size_t capacity = kDefaultCapacity) : Ring(capacity) {}
};

}  // namespace optrep::obs
