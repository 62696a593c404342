// Causal propagation tracing: trace contexts for updates, spans for
// synchronization hops, and the deterministic optrep.causal/v1 dump.
//
// A CausalTracer answers *why* the fleet converged when it did: every
// originating update opens a trace (trace id derived from the run seed and
// the update's (object, site, seq) identity — reproducible across thread
// counts), every synchronization session opens a span (sequential id, parent
// link for retry attempts), and the transport stamps send → receive, fault,
// and element-apply edges onto the active span. The repl systems emit the
// semantic events: kDeliver when an update becomes known at a site and
// kConverge when it stops diverging (every replica currently hosting the
// object has absorbed it — a later replica birth can re-open the trace, in
// which case a further kConverge closes it again; analyzers use the last).
//
// Events live in an obs::Ring (obs/ring.h): record() is a ring write with no
// heap allocation — the tracing-off cost is a null check, and the tracing-on
// steady state allocates nothing (both gated by bench_microops). Exports are
// byte-deterministic: events leave in ring order, floats print as %.17g, and
// sweep documents are assembled from per-run fragments in config order (see
// tools/optrep_cli.cc).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace optrep::obs {

enum class CausalEventType : std::uint8_t {
  kOrigin,     // an update was created at a site; opens its trace
  kSpanBegin,  // a synchronization hop (session or retry attempt) opened
  kSpanEnd,    // ...closed; bits = total session bits, ok = clean finish
  kWireSend,   // a message entered the link (sender hand-off)
  kWireRecv,   // the link delivered it (before any fault injector verdict)
  kFault,      // the fault injector dropped/duplicated/reordered/corrupted it
  kApply,      // receiver wrote a new vector element (counts toward |Δ|)
  kDeliver,    // the update became known at site `dst` (carried by `span`)
  kConverge,   // the update stopped diverging across all current replicas
};

std::string_view to_string(CausalEventType t);

struct CausalEvent {
  double at{0};
  CausalEventType type{CausalEventType::kOrigin};
  std::uint64_t trace{0};   // trace id (origin/deliver/converge), else 0
  std::uint64_t span{0};    // span id (span/wire/fault/apply/deliver), else 0
  std::uint64_t parent{0};  // kSpanBegin: enclosing span (0 = root)
  ObjectId obj{};           // origin/deliver/converge: the replicated object
  SiteId site{};            // update origin site, or wire element site
  std::uint64_t seq{0};     // update seq, or wire element value
  SiteId src{};             // kSpanBegin/kDeliver: sending site
  SiteId dst{};             // kSpanBegin/kDeliver: receiving site
  std::uint32_t attempt{0}; // kSpanBegin: retry attempt index (0 = first)
  std::uint64_t bits{0};    // wire events: model bits; kSpanEnd: session bits
  bool forward{true};       // wire/fault events: sender→receiver direction
  bool ok{true};            // kSpanEnd: receiver reached clean quiescence
  FlightFault fault{FlightFault::kNone};  // kFault: what the injector did
};

class CausalTracer : public Ring<CausalEvent> {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit CausalTracer(std::uint64_t run_seed,
                        std::size_t capacity = kDefaultCapacity)
      : Ring(capacity), seed_(run_seed) {}

  std::uint64_t run_seed() const { return seed_; }
  std::uint64_t spans_opened() const { return last_span_; }

  // Trace identity: a SplitMix64-style mix of the run seed and the update's
  // (object, site, seq) triple. Never 0 (0 means "no trace"). Deterministic
  // per run — two runs of the same seed produce byte-identical dumps, and a
  // sweep's per-run seeds come from rt::task_seed, so dumps are identical
  // for any --threads.
  std::uint64_t trace_id(ObjectId obj, SiteId site, std::uint64_t seq) const {
    std::uint64_t x = seed_;
    x ^= (std::uint64_t{obj.value} << 32) | std::uint64_t{site.value};
    x += 0x9E3779B97F4A7C15ULL;
    x ^= seq * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x == 0 ? 1 : x;
  }

  // --- typed emitters -----------------------------------------------------

  void origin(double at, ObjectId obj, SiteId site, std::uint64_t seq) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kOrigin;
    e.trace = trace_id(obj, site, seq);
    e.obj = obj;
    e.site = site;
    e.seq = seq;
    record(e);
  }

  // Opens a hop span and returns its id. `parent` is 0 for root spans;
  // retry attempts pass the recovery root. src/dst label the replica sites
  // when the caller knows them (0 otherwise).
  std::uint64_t begin_span(double at, std::uint64_t parent, SiteId src,
                           SiteId dst, std::uint32_t attempt) {
    const std::uint64_t id = ++last_span_;
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kSpanBegin;
    e.span = id;
    e.parent = parent;
    e.src = src;
    e.dst = dst;
    e.attempt = attempt;
    record(e);
    return id;
  }

  void end_span(double at, std::uint64_t span, std::uint64_t bits, bool ok) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kSpanEnd;
    e.span = span;
    e.bits = bits;
    e.ok = ok;
    record(e);
  }

  void wire(double at, bool recv, std::uint64_t span, bool forward,
            SiteId site, std::uint64_t value, std::uint64_t bits) {
    CausalEvent e;
    e.at = at;
    e.type = recv ? CausalEventType::kWireRecv : CausalEventType::kWireSend;
    e.span = span;
    e.site = site;
    e.seq = value;
    e.bits = bits;
    e.forward = forward;
    record(e);
  }

  void fault(double at, std::uint64_t span, bool forward, FlightFault f,
             SiteId site, std::uint64_t value) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kFault;
    e.span = span;
    e.site = site;
    e.seq = value;
    e.forward = forward;
    e.fault = f;
    record(e);
  }

  void apply(double at, std::uint64_t span, SiteId site, std::uint64_t value) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kApply;
    e.span = span;
    e.site = site;
    e.seq = value;
    record(e);
  }

  void deliver(double at, ObjectId obj, SiteId origin_site, std::uint64_t seq,
               std::uint64_t span, SiteId src, SiteId dst) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kDeliver;
    e.trace = trace_id(obj, origin_site, seq);
    e.span = span;
    e.obj = obj;
    e.site = origin_site;
    e.seq = seq;
    e.src = src;
    e.dst = dst;
    record(e);
  }

  void converge(double at, ObjectId obj, SiteId origin_site, std::uint64_t seq) {
    CausalEvent e;
    e.at = at;
    e.type = CausalEventType::kConverge;
    e.trace = trace_id(obj, origin_site, seq);
    e.obj = obj;
    e.site = origin_site;
    e.seq = seq;
    record(e);
  }

  // Fold a per-session scratch tracer (repl::StateSystem::run_batch computes
  // sessions in parallel, each tracing into its own small ring on a private
  // clock that starts at 0) into this tracer: scratch span ids are sequential
  // from 1, so rebase every span and parent reference by this tracer's
  // spans_opened() and advance the span counter past the absorbed ids; and
  // shift every timestamp by `start`, the session's start on this tracer's
  // clock. Callers absorb scratches in spec order, so the merged stream — ids
  // and all — is byte-identical for any thread count. A scratch ring must be
  // sized for its whole session: absorbing a ring that wrapped would silently
  // drop the session's oldest events, so that is an error, not a truncation.
  void absorb(const CausalTracer& scratch, double start) {
    OPTREP_CHECK_MSG(scratch.dropped() == 0,
                     "absorb: scratch causal ring wrapped; size it for the session");
    const std::uint64_t offset = last_span_;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      CausalEvent e = scratch.event(i);
      e.at += start;
      if (e.span != 0) e.span += offset;
      if (e.parent != 0) e.parent += offset;
      record(e);
    }
    last_span_ += scratch.spans_opened();
  }

  void clear() {
    Ring::clear();
    last_span_ = 0;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t last_span_{0};
};

// One optrep.causal/v1 document for a single run: header plus one event per
// line, oldest first. Byte-deterministic for a given event sequence.
std::string causal_to_json(const CausalTracer& t);

// One element of a sweep document's "runs" array: {"run":k,...,"events":[...]}.
// Workers serialize their own run's fragment; the sweep document is assembled
// post-join in config order so bytes are thread-count-independent.
std::string causal_run_fragment(const CausalTracer& t, std::uint64_t run_index);

// Assemble the multi-run optrep.causal/v1 document from per-run fragments
// (already in config order).
std::string causal_sweep_json(const std::vector<std::string>& fragments);

// Chrome-trace/Perfetto export with flow events: per completed span a sender
// slice and a receiver slice joined by a flow (id = span), and per trace a
// flow from the origin instant through every delivery to convergence
// (id = trace). Complements the profiler exporter in obs/prof.h.
std::string causal_to_perfetto_json(const CausalTracer& t);

}  // namespace optrep::obs
