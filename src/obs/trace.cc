#include "obs/trace.h"

namespace optrep::obs {

std::string_view to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSessionBegin: return "session_begin";
    case TraceEventType::kElemSent: return "elem_sent";
    case TraceEventType::kElemApplied: return "elem_applied";
    case TraceEventType::kElemRedundant: return "elem_redundant";
    case TraceEventType::kElemStraggler: return "elem_straggler";
    case TraceEventType::kSkipIssued: return "skip_issued";
    case TraceEventType::kSkipHonored: return "skip_honored";
    case TraceEventType::kHalt: return "halt";
    case TraceEventType::kAck: return "ack";
    case TraceEventType::kProbe: return "probe";
    case TraceEventType::kVerdict: return "verdict";
    case TraceEventType::kSessionEnd: return "session_end";
  }
  return "?";
}

std::string_view to_string(FlightFault f) {
  switch (f) {
    case FlightFault::kNone: return "none";
    case FlightFault::kDropped: return "dropped";
    case FlightFault::kDuplicated: return "duplicated";
    case FlightFault::kReordered: return "reordered";
    case FlightFault::kCorrupted: return "corrupted";
    case FlightFault::kDecodeError: return "decode_error";
  }
  return "?";
}

}  // namespace optrep::obs
