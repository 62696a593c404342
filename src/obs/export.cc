#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

namespace optrep::obs {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key; no separator
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back() == '1') out_.push_back(',');
    has_elem_.back() = '1';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  stack_.push_back('o');
  has_elem_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  OPTREP_CHECK_MSG(!stack_.empty() && stack_.back() == 'o', "unbalanced end_object");
  stack_.pop_back();
  has_elem_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_.push_back('[');
  stack_.push_back('a');
  has_elem_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  OPTREP_CHECK_MSG(!stack_.empty() && stack_.back() == 'a', "unbalanced end_array");
  stack_.pop_back();
  has_elem_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  OPTREP_CHECK_MSG(!stack_.empty() && stack_.back() == 'o', "key outside object");
  comma();
  out_.push_back('"');
  out_ += json_escape(k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  out_.push_back('"');
  out_ += json_escape(v);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  char buf[32];
  // %.17g round-trips IEEE doubles exactly; identical inputs render
  // byte-identically, which the determinism contract depends on.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// CsvRow
// ---------------------------------------------------------------------------

CsvRow& CsvRow::add(std::string_view v) {
  if (!line_.empty()) line_.push_back(',');
  line_ += v;
  return *this;
}

CsvRow& CsvRow::add(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return add(std::string_view(buf));
}

CsvRow& CsvRow::add(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%d", v);
  return add(std::string_view(buf));
}

CsvRow& CsvRow::add(double v, int precision) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return add(std::string_view(buf));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void write_metrics(JsonWriter& w, const Registry& reg) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : reg.counters()) w.field(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : reg.gauges()) {
    w.key(name).begin_object();
    w.field("value", g.value());
    w.field("max", g.max());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : reg.histograms()) {
    const Histogram::Snapshot s = h.snapshot();
    w.key(name).begin_object();
    w.field("count", s.count);
    w.field("sum", s.sum);
    w.field("min", s.min);
    w.field("max", s.max);
    w.field("p50", s.p50);
    w.field("p90", s.p90);
    w.field("p99", s.p99);
    w.field("p999", s.p999);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string metrics_to_json(const Registry& reg) {
  JsonWriter w;
  write_metrics(w, reg);
  return w.take();
}

std::string metrics_to_csv(const Registry& reg) {
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, c] : reg.counters()) {
    out += CsvRow().add("counter").add(name).add("value").add(c.value()).str();
    out.push_back('\n');
  }
  for (const auto& [name, g] : reg.gauges()) {
    out += CsvRow().add("gauge").add(name).add("value").add(std::uint64_t(g.value())).str();
    out.push_back('\n');
    out += CsvRow().add("gauge").add(name).add("max").add(std::uint64_t(g.max())).str();
    out.push_back('\n');
  }
  for (const auto& [name, h] : reg.histograms()) {
    const Histogram::Snapshot s = h.snapshot();
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"count", s.count}, {"sum", s.sum}, {"min", s.min},   {"max", s.max},
        {"p50", s.p50},     {"p90", s.p90}, {"p99", s.p99},   {"p999", s.p999},
    };
    for (const auto& [f, v] : fields) {
      out += CsvRow().add("histogram").add(name).add(f).add(v).str();
      out.push_back('\n');
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

std::string trace_to_json(const Tracer& t) {
  JsonWriter hdr;
  hdr.begin_object();
  hdr.field("schema", "optrep.trace/v1");
  hdr.field("capacity", std::uint64_t{t.capacity()});
  hdr.field("total_recorded", t.total_recorded());
  hdr.field("dropped", t.dropped());
  return append_trace_events(hdr.take(), t, /*with_fault=*/false);
}

std::string append_trace_events(std::string doc, const Ring<TraceEvent>& events,
                                bool with_fault) {
  // Assembled by hand so each event sits on its own line (greppable output
  // that is still one valid JSON document).
  doc += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events.event(i);
    doc += i == 0 ? "\n" : ",\n";
    JsonWriter w;
    w.begin_object();
    w.field("t", e.at);
    w.field("session", e.session);
    w.field("type", to_string(e.type));
    w.field("dir", e.forward ? "fwd" : "rev");
    w.field("site", std::uint64_t{e.site.value});
    w.field("value", e.value);
    w.field("bits", e.bits);
    if (with_fault) w.field("fault", to_string(e.fault));
    w.end_object();
    doc += w.str();
  }
  doc += "\n]}\n";
  return doc;
}

}  // namespace optrep::obs
