// optrep::obs — metrics registry, structured tracing, and exporter tests,
// including the determinism contract (same seed ⇒ byte-identical JSON) and
// the no-allocation guarantee on the hot recording paths.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "repl/state_system.h"
#include "sim/scenario.h"
#include "tests/alloc_counter.h"
#include "vv/compare.h"
#include "vv/session.h"
#include "workload/report.h"
#include "workload/trace.h"

namespace optrep::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  // Below 2^(kSubBits+1) = 16 every value has its own bucket, so percentiles
  // are exact, not approximations.
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(1.0), 15u);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
}

TEST(Histogram, PercentilesWithinQuantizationErrorOnKnownDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const struct {
    double q;
    double expected;
  } cases[] = {{0.50, 500.0}, {0.90, 900.0}, {0.99, 990.0}};
  for (const auto& c : cases) {
    const auto got = static_cast<double>(h.percentile(c.q));
    // Log-bucketing with kSubBits=3 bounds relative error by 2^-3 = 12.5%.
    EXPECT_NEAR(got, c.expected, c.expected * 0.125)
        << "q=" << c.q << " got " << got;
  }
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_EQ(h.percentile(1.0), 1000u);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.p50, h.percentile(0.5));
  EXPECT_EQ(s.p999, h.percentile(0.999));
  EXPECT_GE(s.p999, s.p99);  // percentiles are monotone in q
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.p999, 0u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, InstrumentsAreStableAndIterationIsSorted) {
  Registry reg;
  Counter& c1 = reg.counter("z.last");
  Counter& c2 = reg.counter("a.first");
  c1.inc(3);
  reg.counter("m.middle");
  // Registering more instruments must not invalidate earlier references, and
  // re-lookup must yield the same instrument.
  EXPECT_EQ(&reg.counter("z.last"), &c1);
  EXPECT_EQ(&reg.counter("a.first"), &c2);
  EXPECT_EQ(reg.counter("z.last").value(), 3u);

  std::string order;
  for (const auto& [name, c] : reg.counters()) order += name + ";";
  EXPECT_EQ(order, "a.first;m.middle;z.last;");
}

TEST(Registry, GaugeTracksHighWaterMark) {
  Registry reg;
  Gauge& g = reg.gauge("depth");
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 12);
  g.add(-10);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(g.max(), 12);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RingOverflowDropsOldestAndCountsDrops) {
  Tracer t(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 12; ++i) {
    TraceEvent e;
    e.value = i;
    t.record(e);
  }
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.total_recorded(), 12u);
  EXPECT_EQ(t.dropped(), 4u);
  // The oldest retained event is the 5th recorded (values 4..11 survive).
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.event(i).value, i + 4);

  const std::string json = trace_to_json(t);
  EXPECT_NE(json.find("\"dropped\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":12"), std::string::npos);
}

TEST(Tracer, WrapBoundaryIsExact) {
  // Exactly `capacity` records: the ring is full but nothing has been
  // overwritten yet — an off-by-one here would report a phantom drop.
  Tracer t(/*capacity=*/8);
  TraceEvent e;
  for (std::uint64_t i = 0; i < 8; ++i) {
    e.value = i;
    t.record(e);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.total_recorded(), 8u);
  EXPECT_EQ(t.dropped(), 0u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.event(i).value, i);

  // The (capacity+1)-th record evicts exactly one event: the oldest.
  e.value = 8;
  t.record(e);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.total_recorded(), 9u);
  EXPECT_EQ(t.dropped(), 1u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.event(i).value, i + 1);
}

// ---------------------------------------------------------------------------
// JsonWriter / exporters
// ---------------------------------------------------------------------------

TEST(JsonWriter, NestedContainersAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.field("s", "a\"b\\c\nd");
  w.key("arr").begin_array().value(std::uint64_t{1}).value(true).null().end_array();
  w.key("o").begin_object().field("x", 1.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,true,null],\"o\":{\"x\":1.5}}");
}

TEST(Export, MetricsJsonAndCsvAreNameSorted) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  reg.gauge("g").set(7);
  reg.histogram("h").record(5);
  const std::string json = metrics_to_json(reg);
  EXPECT_LT(json.find("\"a\":1"), json.find("\"b\":2"));
  EXPECT_NE(json.find("\"p99\":5"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":5"), std::string::npos);
  const std::string csv = metrics_to_csv(reg);
  EXPECT_NE(csv.find("counter,a,value,1\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,max,7\n"), std::string::npos);
}

TEST(Export, BoundViolationAdvancesCounterAndIsExplicitInJson) {
  const CostModel cm{.n = 8, .m = 1 << 16};
  vv::SyncReport r;
  r.fwd.model_bits = cm.srv_upper_bound_bits() * 10;  // way past the Table 2 bound
  Registry reg;
  const std::string json = wl::sync_report_to_json(r, vv::VectorKind::kSrv, cm, &reg);
  EXPECT_NE(json.find("\"within_table2_bound\":false"), std::string::npos);
  EXPECT_EQ(reg.counter("obs.bound_violations").value(), 1u);

  vv::SyncReport ok;
  ok.fwd.model_bits = 1;
  EXPECT_NE(wl::sync_report_to_json(ok, vv::VectorKind::kSrv, cm, &reg)
                .find("\"within_table2_bound\":true"),
            std::string::npos);
  EXPECT_EQ(reg.counter("obs.bound_violations").value(), 1u);  // unchanged
}

// ---------------------------------------------------------------------------
// Session integration: taps, tracer, metrics
// ---------------------------------------------------------------------------

TEST(SessionObservability, AllTapSubscribersSeeEveryMessage) {
  vv::RotatingVector a, b;
  for (std::uint32_t i = 0; i < 4; ++i) b.record_update(SiteId{i});
  vv::SyncOptions opt;
  opt.kind = vv::VectorKind::kSrv;
  opt.mode = vv::TransferMode::kIdeal;
  opt.cost = CostModel{.n = 8, .m = 256};
  opt.known_relation = vv::Ordering::kBefore;
  int first = 0, extra1 = 0, extra2 = 0;
  opt.add_tap([&](bool, const vv::VvMsg&) { ++first; });
  opt.add_tap([&](bool, const vv::VvMsg&) { ++extra1; });
  opt.add_tap([&](bool, const vv::VvMsg&) { ++extra2; });
  sim::EventLoop loop;
  vv::sync_rotating(loop, a, b, opt);
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, extra1);
  EXPECT_EQ(first, extra2);
}

TEST(SessionObservability, TracerRecordsSessionBracketsAndMetricsAggregate) {
  vv::RotatingVector a, b;
  for (std::uint32_t i = 0; i < 4; ++i) b.record_update(SiteId{i});
  Tracer tracer;
  Registry reg;
  vv::SyncOptions opt;
  opt.kind = vv::VectorKind::kSrv;
  opt.mode = vv::TransferMode::kIdeal;
  opt.cost = CostModel{.n = 8, .m = 256};
  opt.known_relation = vv::Ordering::kBefore;
  opt.tracer = &tracer;
  opt.trace_session = 42;
  opt.metrics = &reg;
  sim::EventLoop loop;
  const vv::SyncReport rep = vv::sync_rotating(loop, a, b, opt);

  ASSERT_GE(tracer.size(), 2u);
  EXPECT_EQ(tracer.event(0).type, TraceEventType::kSessionBegin);
  EXPECT_EQ(tracer.event(tracer.size() - 1).type, TraceEventType::kSessionEnd);
  EXPECT_EQ(tracer.event(tracer.size() - 1).bits, rep.total_bits());
  std::size_t sent = 0;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.event(i).session, 42u);
    if (tracer.event(i).type == TraceEventType::kElemSent) ++sent;
  }
  EXPECT_EQ(sent, rep.elems_sent);

  EXPECT_EQ(reg.counter("vv.sessions").value(), 1u);
  EXPECT_EQ(reg.counter("vv.elems_applied").value(), rep.elems_applied);
  EXPECT_EQ(reg.histogram("vv.session_bits").count(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: same seed ⇒ byte-identical exported artifacts
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string report;
  std::string trace_json;
  std::string metrics_csv;
};

RunArtifacts run_once(std::uint64_t seed) {
  wl::GeneratorConfig g;
  g.n_sites = 8;
  g.n_objects = 2;
  g.steps = 300;
  g.seed = seed;
  const wl::Trace trace = wl::generate(g);
  Tracer tracer;
  repl::StateSystem::Config cfg;
  cfg.n_sites = g.n_sites;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = g.n_sites, .m = 1 << 16};
  cfg.tracer = &tracer;
  repl::StateSystem sys(cfg);
  const wl::RunStats stats = wl::run_state(sys, trace);
  return {wl::state_run_report_json(sys, trace, stats), trace_to_json(tracer),
          metrics_to_csv(sys.metrics())};
}

TEST(Determinism, SameSeedRunsExportByteIdenticalJson) {
  const RunArtifacts r1 = run_once(7);
  const RunArtifacts r2 = run_once(7);
  EXPECT_EQ(r1.report, r2.report);
  EXPECT_EQ(r1.trace_json, r2.trace_json);
  // The CSV export must be byte-identical too: no wall-clock values leak into
  // the default metrics (profiling sinks are opt-in via --profile-out).
  EXPECT_EQ(r1.metrics_csv, r2.metrics_csv);
  EXPECT_NE(r1.metrics_csv.find("counter,"), std::string::npos);
  // And the artifacts are not degenerate.
  EXPECT_NE(r1.report.find("\"schema\":\"optrep.run/v1\""), std::string::npos);
  EXPECT_NE(r1.trace_json.find("\"session_begin\""), std::string::npos);
  // A different seed must actually change the report (guards against the
  // tags being ignored).
  EXPECT_NE(run_once(8).report, r1.report);
}

// ---------------------------------------------------------------------------
// Hot paths allocate nothing
// ---------------------------------------------------------------------------

TEST(HotPath, RecordingAllocatesNoHeapMemory) {
  Registry reg;
  Counter& c = reg.counter("hot.counter");
  Histogram& h = reg.histogram("hot.histogram");
  Gauge& g = reg.gauge("hot.gauge");
  Tracer t(/*capacity=*/64);  // small ring, forced to wrap many times
  TraceEvent e;
  e.type = TraceEventType::kElemSent;

  const std::uint64_t before = g_alloc_count;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    c.inc();
    h.record(i);
    g.set(static_cast<std::int64_t>(i));
    e.value = i;
    t.record(e);
  }
  EXPECT_EQ(g_alloc_count, before) << "hot instrument paths must not allocate";

  // Re-looking up an already-registered instrument is also allocation-free
  // (heterogeneous string_view find, no temporary std::string).
  const std::uint64_t before_lookup = g_alloc_count;
  for (int i = 0; i < 1000; ++i) reg.counter("hot.counter").inc();
  EXPECT_EQ(g_alloc_count, before_lookup);
}

TEST(HotPath, SpanRecordingAllocatesNoHeapMemory) {
  prof::Profiler profiler(/*capacity=*/64);  // small ring, wraps many times
  Registry reg;
  profiler.set_sink(&reg);
  prof::set_global_profiler(&profiler);

  // First record per distinct span name registers its ".wall_ns" histogram in
  // the sink (one-time allocation); warm both names up front.
  { OPTREP_SPAN("hot.outer"); { OPTREP_SPAN("hot.inner"); } }

  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 10'000; ++i) {
    OPTREP_SPAN("hot.outer");
    { OPTREP_SPAN("hot.inner"); }
  }
  EXPECT_EQ(g_alloc_count, before) << "span recording must not allocate";
  prof::set_global_profiler(nullptr);

  EXPECT_EQ(profiler.total_recorded(), 20'002u);
  EXPECT_EQ(profiler.size(), 64u);
  EXPECT_EQ(reg.histogram("hot.outer.wall_ns").count(), 10'001u);
  EXPECT_EQ(reg.histogram("hot.inner.wall_ns").count(), 10'001u);
}

// The tentpole no-allocation contract: once a receiver's slot table, the
// event-loop queue and the link handlers are warm, a whole sync session —
// element messages, acks, HALT — runs without touching the heap. Message
// delivery closures live in the EventLoop's FixedFunction inline storage and
// the flat site index grows only when the site set does.
TEST(HotPath, SteadyStateSyncSessionAllocatesNoHeapMemory) {
  constexpr std::uint32_t kSites = 24;
  constexpr std::uint32_t kMissing = 8;
  vv::RotatingVector base;
  for (std::uint32_t i = 0; i < kSites - kMissing; ++i) base.record_update(SiteId{i});
  vv::RotatingVector b = base;
  for (std::uint32_t i = kSites - kMissing; i < kSites; ++i) b.record_update(SiteId{i});

  vv::SyncOptions opt;
  opt.kind = vv::VectorKind::kSrv;
  opt.mode = vv::TransferMode::kPipelined;
  opt.cost = CostModel{.n = kSites, .m = 1 << 16};
  opt.known_relation = vv::Ordering::kBefore;

  sim::EventLoop loop;
  loop.reserve(4 * kSites);

  // Warm-up session: grows the receiver's slot table and whatever scratch the
  // loop/link layer sizes on first use.
  vv::RotatingVector warm = base;
  warm.reserve(kSites);
  vv::sync_rotating(loop, warm, b, opt);

  vv::RotatingVector a = base;
  a.reserve(kSites);
  const std::uint64_t before = g_alloc_count;
  const vv::SyncReport rep = vv::sync_rotating(loop, a, b, opt);
  EXPECT_EQ(g_alloc_count, before)
      << "steady-state sync sessions must not allocate per message";
  EXPECT_EQ(rep.elems_applied, kMissing);
  // SRV may skip dominated segments, so a's order need not equal b's; the
  // values must.
  for (std::uint32_t i = 0; i < kSites; ++i) {
    EXPECT_EQ(a.value(SiteId{i}), b.value(SiteId{i})) << "site " << i;
  }
}

// The gossip exchange decides every relation with the full element-wise
// comparison; it walks the two vectors in place and allocates nothing.
TEST(HotPath, CompareFullAllocatesNoHeapMemory) {
  vv::RotatingVector a, b;
  for (std::uint32_t i = 0; i < 32; ++i) {
    a.record_update(SiteId{i});
    if (i % 3 != 0) b.record_update(SiteId{i});
  }
  vv::RotatingVector c = a;
  c.record_update(SiteId{40});
  b.record_update(SiteId{41});
  const vv::RotatingVector* vs[] = {&a, &b, &c};
  vv::Ordering want[3][3];
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      want[x][y] = vs[x]->to_version_vector().compare(vs[y]->to_version_vector());
    }
  }

  vv::Ordering got[3][3];
  const std::uint64_t before = g_alloc_count;
  for (int rep = 0; rep < 1000; ++rep) {
    for (int x = 0; x < 3; ++x) {
      for (int y = 0; y < 3; ++y) got[x][y] = vv::compare_full(*vs[x], *vs[y]);
    }
  }
  EXPECT_EQ(g_alloc_count, before) << "compare_full must not allocate";
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) EXPECT_EQ(got[x][y], want[x][y]) << x << " vs " << y;
  }
  EXPECT_EQ(got[0][1], vv::Ordering::kConcurrent);
  EXPECT_EQ(got[0][2], vv::Ordering::kBefore);
}

// The gossip exchange path end to end: once a large SRV world's vectors, its
// dirty queues and the event loop are warm, whole bursts of writes and
// gossip rounds (COMPARE, sessions both ways, reconciliations, convergence
// bookkeeping) run without touching the heap.
TEST(HotPath, SteadyStateSrvGossipAllocatesNoHeapMemory) {
  sim::ScenarioWorld::Config cfg;
  cfg.algo = sim::ScenarioAlgo::kSrv;
  cfg.sites = 2000;
  cfg.writers = 16;
  cfg.mesh = sim::MeshKind::kSmallWorld;
  cfg.degree = 3;
  cfg.seed = 5;
  cfg.cost = CostModel{.n = cfg.sites, .m = 1 << 16};
  sim::ScenarioWorld world(cfg);

  std::uint32_t exchanges = 0;
  const auto burst = [&] {
    for (int w = 0; w < 16; ++w) world.local_update(world.next_writer());
    for (int r = 0; r < 4; ++r) exchanges += world.gossip_round();
  };
  for (int warm = 0; warm < 4; ++warm) burst();

  for (int b = 0; b < 4; ++b) {
    const std::uint32_t exchanges_before = exchanges;
    const std::uint64_t sessions_before = world.totals().sessions;
    const std::uint64_t before = g_alloc_count;
    burst();
    EXPECT_EQ(g_alloc_count, before) << "burst " << b << " allocated";
    // The burst did real work: exchanges, and sessions that moved state.
    EXPECT_GT(exchanges, exchanges_before + 100);
    EXPECT_GT(world.totals().sessions, sessions_before + 100);
  }
  EXPECT_GT(world.totals().reconciliations, 0u);
}

}  // namespace
}  // namespace optrep::obs
