#include "obs/flight_recorder.h"

#include "obs/export.h"

namespace optrep::obs {

std::string flight_to_json(const FlightRecorder& r) {
  JsonWriter hdr;
  hdr.begin_object();
  hdr.field("schema", "optrep.flight/v1");
  hdr.field("capacity", static_cast<std::uint64_t>(r.capacity()));
  hdr.field("total_recorded", r.dump().total_recorded());
  hdr.field("triggered", r.triggered());
  hdr.field("trigger_count", r.trigger_count());
  hdr.field("trigger_reason", r.reason());
  hdr.field("trigger_at", r.triggered_at());
  hdr.field("fault_seed", r.fault_seed());
  hdr.field("trigger_attempt", r.trigger_attempt());
  hdr.field("trigger_seq", r.trigger_seq());
  return append_trace_events(hdr.take(), r.dump(), /*with_fault=*/true);
}

}  // namespace optrep::obs
