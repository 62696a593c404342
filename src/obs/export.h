// Machine-readable serialization of observability state: a small
// deterministic JSON writer, CSV row builder, and exporters for metric
// snapshots and trace slices. These replace the hand-rolled printf emitters
// that used to live in the CLI and benches.
//
// Determinism contract (what makes exported artifacts diffable in CI): all
// registry iteration is name-sorted, all numbers are formatted with fixed
// rules (%.17g for doubles, which round-trips exactly), and nothing depends
// on pointer values or unordered-container iteration order. Two runs with
// identical seeds therefore produce byte-identical output.
//
// JSON schemas are documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace optrep::obs {

// Minimal streaming JSON writer: explicit begin/end with automatic comma
// placement. No pretty-printing beyond what the schema needs; output is one
// line unless callers embed newlines via raw().
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  template <class T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  // Splice a pre-rendered JSON fragment in value position.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  // Nesting state: whether the current container already has an element.
  std::string stack_;  // 'o' = object, 'a' = array; parallel "has element" flags
  std::string has_elem_;
  bool pending_key_{false};
};

std::string json_escape(std::string_view s);

// One CSV row (or header) with deterministic formatting; no quoting is
// needed because emitted fields never contain commas.
class CsvRow {
 public:
  CsvRow& add(std::string_view v);
  CsvRow& add(const char* v) { return add(std::string_view(v)); }
  CsvRow& add(std::uint64_t v);
  CsvRow& add(std::uint32_t v) { return add(std::uint64_t{v}); }
  CsvRow& add(int v);
  CsvRow& add(double v, int precision = 3);
  const std::string& str() const { return line_; }

 private:
  std::string line_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// {"counters":{...},"gauges":{name:{"value":..,"max":..}},"histograms":
//  {name:{"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}}}
void write_metrics(JsonWriter& w, const Registry& reg);
std::string metrics_to_json(const Registry& reg);
// CSV: one "kind,name,field,value" row per scalar.
std::string metrics_to_csv(const Registry& reg);

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

// {"schema":...,"capacity":..,"total":..,"dropped":..,"events":[...]}
// Events render one per line for greppability; still valid JSON.
std::string trace_to_json(const Tracer& t);
// Appends the "events" array to `doc`, a header object left open, and closes
// the document. One event per line: the seven optrep.trace/v1 fields, plus
// "fault" when `with_fault` (optrep.flight/v1).
std::string append_trace_events(std::string doc, const Ring<TraceEvent>& events,
                                bool with_fault);

}  // namespace optrep::obs
