// obs::Timeline + obs::FlightRecorder: sampler semantics (carry-forward,
// caps, delta encoding), the optrep.timeline/v1 and optrep.flight/v1
// documents, the event loop's time-advance sampling hook, the repl systems'
// convergence probe, and the dump-on-violation trigger paths.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/timeline.h"
#include "repl/op_system.h"
#include "repl/state_system.h"
#include "sim/event_loop.h"
#include "vv/session.h"
#include "workload/trace.h"

using namespace optrep;

namespace {

// ---- Timeline sampler ------------------------------------------------------

TEST(Timeline, DeltaEncodedExport) {
  obs::Timeline t;
  t.set_axis("sessions");
  t.begin_sample(1);
  t.record("a", 10);
  t.begin_sample(2);
  t.record("a", 25);
  t.begin_sample(3);
  t.record("a", 25);
  const std::string json = obs::timeline_to_json(t);
  // First value raw, then successive differences.
  EXPECT_NE(json.find("{\"name\":\"a\",\"start\":0,\"first\":10,\"deltas\":[15,0]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"schema\":\"optrep.timeline/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"axis\":\"sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"x\":[1,2,3]"), std::string::npos) << json;
}

TEST(Timeline, CarryForwardAndLateSeries) {
  obs::Timeline t;
  t.begin_sample(0);
  t.record("early", 5);
  t.begin_sample(1);  // `early` not recorded: carries 5 forward
  t.record("late", 100);
  t.begin_sample(2);
  t.record("early", 7);
  t.record("late", 90);

  const obs::Timeline::Series* early = t.find("early");
  ASSERT_NE(early, nullptr);
  EXPECT_EQ(early->start, 0u);
  EXPECT_EQ(early->values, (std::vector<std::int64_t>{5, 5, 7}));

  const obs::Timeline::Series* late = t.find("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->start, 1u);  // column-aligned from its first sample
  EXPECT_EQ(late->values, (std::vector<std::int64_t>{100, 90}));

  // Negative deltas survive the round trip (deltas are signed).
  const std::string json = obs::timeline_to_json(t);
  EXPECT_NE(json.find("{\"name\":\"late\",\"start\":1,\"first\":100,\"deltas\":[-10]}"),
            std::string::npos)
      << json;
}

TEST(Timeline, SampleAndSeriesCapsAreCountedNotSilent) {
  obs::Timeline t(obs::Timeline::Config{.max_samples = 2, .max_series = 1});
  t.begin_sample(0);
  t.record("a", 1);
  t.record("b", 2);  // past max_series: dropped and counted
  t.begin_sample(1);
  t.record("a", 3);
  t.begin_sample(2);  // past max_samples: dropped and counted
  t.record("a", 4);   // lands nowhere (current sample is dropped)
  EXPECT_EQ(t.samples(), 2u);
  EXPECT_EQ(t.series_count(), 1u);
  EXPECT_EQ(t.dropped_samples(), 1u);
  EXPECT_EQ(t.dropped_series(), 1u);
  const obs::Timeline::Series* a = t.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->values, (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(t.find("b"), nullptr);
  EXPECT_NE(obs::timeline_to_json(t).find("\"dropped_samples\":1"), std::string::npos);
}

TEST(Timeline, SampleRegistryCoversAllInstrumentKinds) {
  obs::Registry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(-2);
  reg.histogram("h").record(10);
  obs::Timeline t;
  t.begin_sample(0);
  t.sample_registry(reg);
  ASSERT_NE(t.find("c"), nullptr);
  EXPECT_EQ(t.find("c")->values.back(), 3);
  ASSERT_NE(t.find("g"), nullptr);
  EXPECT_EQ(t.find("g")->values.back(), -2);
  ASSERT_NE(t.find("h.count"), nullptr);
  ASSERT_NE(t.find("h.p50"), nullptr);
  ASSERT_NE(t.find("h.p99"), nullptr);
  ASSERT_NE(t.find("h.p999"), nullptr);
}

TEST(Timeline, ExportIsValidJsonAndNameSorted) {
  obs::Timeline t;
  t.begin_sample(0);
  t.record("zeta", 1);
  t.record("alpha", 2);
  const std::string json = obs::timeline_to_json(t);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err;
  const obs::JsonValue* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items.size(), 2u);
  EXPECT_EQ(series->items[0].find("name")->string, "alpha");
  EXPECT_EQ(series->items[1].find("name")->string, "zeta");
}

// ---- EventLoop time-advance sampler ----------------------------------------

TEST(EventLoopSampler, FiresPerCrossedBoundaryBeforeTheCrossingEvent) {
  sim::EventLoop loop;
  std::vector<double> fired;
  loop.set_time_sampler(
      1.0, &fired, +[](void* ctx, sim::Time t) {
        static_cast<std::vector<double>*>(ctx)->push_back(t);
      });
  loop.schedule(0.5, [] {});
  loop.schedule(2.5, [] {});  // crosses boundaries 1.0 and 2.0 at once
  loop.schedule(3.0, [] {});  // lands exactly on boundary 3.0: sample first
  loop.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventLoopSampler, ClearStopsSampling) {
  sim::EventLoop loop;
  int fired = 0;
  loop.set_time_sampler(
      1.0, &fired, +[](void* ctx, sim::Time) { ++*static_cast<int*>(ctx); });
  loop.clear_time_sampler();
  loop.schedule(5.0, [] {});
  loop.run();
  EXPECT_EQ(fired, 0);
}

// ---- FlightRecorder --------------------------------------------------------

obs::TraceEvent rec_at(double at, std::uint64_t value) {
  obs::TraceEvent r;
  r.at = at;
  r.value = value;
  return r;
}

TEST(FlightRecorder, RingKeepsLastKOldestFirst) {
  obs::FlightRecorder r(4);
  for (std::uint64_t i = 0; i < 10; ++i) r.record(rec_at(double(i), i));
  EXPECT_EQ(r.capacity(), 4u);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.total_recorded(), 10u);
  EXPECT_EQ(r.dropped(), 6u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.event(i).value, 6 + i);
}

TEST(FlightRecorder, FirstTriggerFreezesTheSnapshot) {
  obs::FlightRecorder r(4);
  for (std::uint64_t i = 0; i < 3; ++i) r.record(rec_at(double(i), i));
  r.trigger("decode_error", 2.5);
  // Later traffic and later triggers must not disturb the frozen evidence.
  for (std::uint64_t i = 3; i < 8; ++i) r.record(rec_at(double(i), i));
  r.trigger("retry_exhausted", 7.0);
  EXPECT_TRUE(r.triggered());
  EXPECT_EQ(r.trigger_count(), 2u);
  EXPECT_EQ(r.reason(), "decode_error");
  EXPECT_EQ(r.triggered_at(), 2.5);
  ASSERT_EQ(r.dump().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.dump().event(i).value, i);
  EXPECT_EQ(r.dump().total_recorded(), 3u);
  // The live ring keeps rolling independently of the snapshot.
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.event(3).value, 7u);
}

TEST(FlightRecorder, DumpJsonShape) {
  obs::FlightRecorder r(4);
  obs::TraceEvent e;
  e.at = 1.25;
  e.session = 3;
  e.type = obs::TraceEventType::kElemSent;
  e.forward = false;
  e.site = SiteId{7};
  e.value = 42;
  e.bits = 19;
  e.fault = obs::FlightFault::kDecodeError;
  r.record(e);
  r.trigger("decode_error", 1.25);
  const std::string json = obs::flight_to_json(r);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err;
  EXPECT_EQ(doc.find("schema")->string, "optrep.flight/v1");
  EXPECT_EQ(doc.find("trigger_reason")->string, "decode_error");
  EXPECT_EQ(doc.find("triggered")->boolean, true);
  const obs::JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  const obs::JsonValue& ev = events->items[0];
  EXPECT_EQ(ev.find("dir")->string, "rev");
  EXPECT_EQ(ev.find("site")->number, 7);
  EXPECT_EQ(ev.find("value")->number, 42);
  EXPECT_EQ(ev.find("fault")->string, "decode_error");
}

// ---- StateSystem convergence probe + sampling ------------------------------

repl::StateSystem::Config state_cfg(std::uint32_t sites) {
  repl::StateSystem::Config cfg;
  cfg.n_sites = sites;
  cfg.kind = vv::VectorKind::kSrv;
  cfg.cost = CostModel{.n = sites, .m = 1 << 16};
  return cfg;
}

TEST(StateDivergence, CountsMissingElementsAndReachesZeroOnConvergence) {
  repl::StateSystem sys(state_cfg(3));
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  EXPECT_EQ(sys.divergence(), 0u);  // single replica is trivially converged
  sys.sync(SiteId{1}, SiteId{0}, obj);
  EXPECT_EQ(sys.divergence(), 0u);
  sys.update(SiteId{0}, obj, "b");
  // Site 1 now lags site 0's entry by one update.
  EXPECT_EQ(sys.divergence(), 1u);
  sys.update(SiteId{1}, obj, "c");
  // Both lag each other's latest entry.
  EXPECT_EQ(sys.divergence(), 2u);
  sys.sync(SiteId{1}, SiteId{0}, obj);  // concurrent: reconcile + local update
  sys.sync(SiteId{0}, SiteId{1}, obj);
  EXPECT_EQ(sys.divergence(), 0u);
  EXPECT_TRUE(sys.replicas_consistent(obj));
}

TEST(StateDivergence, ConflictedReplicasCount) {
  auto cfg = state_cfg(2);
  cfg.policy = repl::ResolutionPolicy::kManual;
  repl::StateSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  sys.update(SiteId{0}, obj, "b");
  sys.update(SiteId{1}, obj, "c");
  sys.sync(SiteId{1}, SiteId{0}, obj);  // manual policy: both excluded
  // 2 missing elements + 2 excluded replicas.
  EXPECT_EQ(sys.divergence(), 4u);
}

TEST(StateTimeline, SamplesEverySessionIntervalAndEmitsDivergence) {
  obs::Timeline tl;
  auto cfg = state_cfg(3);
  cfg.timeline = &tl;
  cfg.timeline_every = 2;
  repl::StateSystem sys(cfg);
  EXPECT_EQ(tl.axis(), "sessions");
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  for (int i = 0; i < 5; ++i) {
    sys.update(SiteId{0}, obj, "u" + std::to_string(i));
    sys.sync(SiteId{1}, SiteId{0}, obj);
  }
  EXPECT_EQ(tl.samples(), 2u);  // sessions 2 and 4
  sys.sample_timeline();
  EXPECT_EQ(tl.samples(), 3u);  // manual flush at session 5
  sys.sample_timeline();
  EXPECT_EQ(tl.samples(), 3u);  // suppressed: same session count
  const obs::Timeline::Series* div = tl.find("repl.divergence");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->values.back(), 0);  // every sync pulled dst up to date
  ASSERT_NE(tl.find("state.sessions"), nullptr);
  EXPECT_EQ(tl.find("state.sessions")->values.back(), 5);
  EXPECT_EQ(tl.xs().back(), 5.0);
}

TEST(StateTimeline, TimeAxisSamplingFollowsTheSimulatedClock) {
  obs::Timeline tl;
  auto cfg = state_cfg(3);
  cfg.timeline = &tl;
  cfg.timeline_every_s = 0.005;
  cfg.mode = vv::TransferMode::kStopAndWait;
  cfg.net.latency_s = 0.01;  // every session crosses sampling boundaries
  repl::StateSystem sys(cfg);
  EXPECT_EQ(tl.axis(), "time_s");
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.update(SiteId{0}, obj, "b");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  sys.sync(SiteId{2}, SiteId{0}, obj);
  ASSERT_GE(tl.samples(), 2u);
  // Samples land on exact period boundaries of the simulated clock.
  for (std::size_t i = 0; i < tl.samples(); ++i) {
    const double x = tl.xs()[i];
    EXPECT_NEAR(x / 0.005, std::round(x / 0.005), 1e-9) << x;
  }
  ASSERT_NE(tl.find("repl.divergence"), nullptr);
}

TEST(StateTimeline, EqualRunsExportByteIdenticalDocuments) {
  const auto run = [] {
    obs::Timeline tl;
    auto cfg = state_cfg(6);
    cfg.timeline = &tl;
    cfg.timeline_every = 4;
    repl::StateSystem sys(cfg);
    wl::GeneratorConfig g;
    g.n_sites = 6;
    g.n_objects = 2;
    g.steps = 120;
    g.seed = 11;
    wl::run_state(sys, wl::generate(g));
    sys.sample_timeline();
    return obs::timeline_to_json(tl);
  };
  EXPECT_EQ(run(), run());
}

// ---- OpSystem convergence probe --------------------------------------------

TEST(OpDivergence, CountsMissingOperations) {
  repl::OpSystem::Config cfg;
  cfg.n_sites = 3;
  cfg.cost = CostModel{.n = 3, .m = 1 << 20};
  repl::OpSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  EXPECT_EQ(sys.divergence(), 0u);
  sys.update(SiteId{0}, obj, "b");
  sys.update(SiteId{1}, obj, "c");
  EXPECT_EQ(sys.divergence(), 2u);  // each replica misses the other's op
  sys.sync(SiteId{1}, SiteId{0}, obj);  // reconciles: merge node at site 1
  sys.sync(SiteId{0}, SiteId{1}, obj);
  EXPECT_EQ(sys.divergence(), 0u);
  EXPECT_TRUE(sys.replicas_consistent(obj));
}

// ---- dump-on-violation end to end ------------------------------------------

TEST(FlightRecorderIntegration, RetryExhaustionUnderHeavyLossTriggersAnnotatedDump) {
  obs::FlightRecorder rec;
  auto cfg = state_cfg(3);
  cfg.recorder = &rec;
  cfg.net.latency_s = 0.001;
  cfg.net.faults.drop = 0.95;
  cfg.net.faults.seed = 5;
  repl::StateSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  // Heavy loss: some sync eventually exhausts its retry budget.
  for (int i = 0; i < 30 && !rec.triggered(); ++i) {
    sys.update(SiteId{0}, obj, "u" + std::to_string(i));
    sys.sync(SiteId{1}, SiteId{0}, obj);
  }
  ASSERT_TRUE(rec.triggered());
  EXPECT_EQ(rec.reason(), "retry_exhausted");
  // The system stamped its fault seed so the dump names the exact replay.
  EXPECT_EQ(rec.fault_seed(), 5u);
  EXPECT_GT(rec.trigger_seq(), 0u);
  ASSERT_GT(rec.dump().size(), 0u);
  bool any_fault = false;
  for (std::size_t i = 0; i < rec.dump().size(); ++i) {
    any_fault = any_fault || rec.dump().event(i).fault != obs::FlightFault::kNone;
  }
  EXPECT_TRUE(any_fault) << "the ring leading to retry exhaustion must show faults";
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::flight_to_json(rec), &doc, &err)) << err;
  EXPECT_EQ(doc.find("trigger_reason")->string, "retry_exhausted");
}

TEST(FlightRecorderIntegration, CorruptionDecodeErrorTriggers) {
  // Not every corruption defeats the CRC into a typed decode error, so scan
  // seeds until one does; determinism makes the first hit stable.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    sim::EventLoop loop;
    obs::FlightRecorder rec;
    vv::RotatingVector b;
    for (std::uint32_t i = 0; i < 8; ++i) b.record_update(SiteId{i});
    vv::RotatingVector a;  // empty receiver: everything must flow
    vv::SyncOptions opt;
    opt.kind = vv::VectorKind::kSrv;
    opt.cost = CostModel{.n = 8, .m = 1 << 16};
    opt.net = {.latency_s = 0.002, .bandwidth_bits_per_s = 2000.0};
    opt.known_relation = vv::Ordering::kBefore;
    opt.retry.base_backoff_s = 0.001;
    opt.net.faults.corrupt = 0.5;
    opt.net.faults.seed = seed;
    opt.recorder = &rec;
    const vv::SyncReport r = vv::sync_with_recovery(loop, a, b, opt);
    if (r.faults_decode_errors == 0) continue;
    found = true;
    ASSERT_TRUE(rec.triggered());
    // Retry exhaustion may have re-triggered later, but the freeze keeps the
    // first anomaly.
    EXPECT_EQ(rec.reason(), "decode_error");
    bool saw_decode = false;
    for (std::size_t i = 0; i < rec.dump().size(); ++i) {
      saw_decode =
          saw_decode || rec.dump().event(i).fault == obs::FlightFault::kDecodeError;
    }
    EXPECT_TRUE(saw_decode);
  }
  EXPECT_TRUE(found) << "no seed in [1,64] produced a typed decode error";
}

// ---- ring wrap boundaries + re-trigger semantics ---------------------------

TEST(Timeline, SampleCapBoundaryIsExact) {
  obs::Timeline t(obs::Timeline::Config{.max_samples = 3, .max_series = 4});
  // Exactly at the cap: every sample retained, nothing counted as dropped.
  for (std::uint64_t i = 0; i < 3; ++i) {
    t.begin_sample(double(i));
    t.record("a", std::int64_t(i));
  }
  EXPECT_EQ(t.samples(), 3u);
  EXPECT_EQ(t.dropped_samples(), 0u);
  // One past the cap: dropped, and records into it land nowhere.
  t.begin_sample(3);
  t.record("a", 99);
  EXPECT_EQ(t.samples(), 3u);
  EXPECT_EQ(t.dropped_samples(), 1u);
  const obs::Timeline::Series* a = t.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->values, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(FlightRecorder, RingWrapBoundaryIsExact) {
  obs::FlightRecorder r(4);
  // Exactly full: all four retained, oldest first, nothing dropped.
  for (std::uint64_t i = 0; i < 4; ++i) r.record(rec_at(double(i), i));
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.dropped(), 0u);
  EXPECT_EQ(r.event(0).value, 0u);
  EXPECT_EQ(r.event(3).value, 3u);
  // One past capacity: the oldest record is overwritten, dropped() advances.
  r.record(rec_at(4.0, 4));
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.total_recorded(), 5u);
  EXPECT_EQ(r.dropped(), 1u);
  EXPECT_EQ(r.event(0).value, 1u);
  EXPECT_EQ(r.event(3).value, 4u);
}

TEST(FlightRecorder, ReTriggerAfterFreezeKeepsTheFirstAnomalyContext) {
  obs::FlightRecorder r(4);
  r.set_fault_seed(77);
  r.note_attempt(2);
  for (std::uint64_t i = 0; i < 3; ++i) r.record(rec_at(double(i), i));
  r.trigger("bound_violation", 2.0);
  // A second anomaly in the same (already-anomalous) run: counted, but the
  // frozen header and snapshot still describe the first.
  r.note_attempt(5);
  for (std::uint64_t i = 3; i < 9; ++i) r.record(rec_at(double(i), i));
  r.trigger("retry_exhausted", 8.0);
  EXPECT_EQ(r.trigger_count(), 2u);
  EXPECT_EQ(r.reason(), "bound_violation");
  EXPECT_EQ(r.triggered_at(), 2.0);
  EXPECT_EQ(r.trigger_attempt(), 2u);
  EXPECT_EQ(r.trigger_seq(), 3u);
  EXPECT_EQ(r.fault_seed(), 77u);
  ASSERT_EQ(r.dump().size(), 3u);
  EXPECT_EQ(r.dump().event(2).value, 2u);
  // clear() rearms the freeze for the next run.
  r.clear();
  EXPECT_FALSE(r.triggered());
  EXPECT_EQ(r.trigger_seq(), 0u);
  r.record(rec_at(10.0, 10));
  r.trigger("decode_error", 10.0);
  EXPECT_EQ(r.reason(), "decode_error");
  EXPECT_EQ(r.trigger_seq(), 1u);
}

TEST(FlightRecorder, DumpHeaderCarriesReplayContext) {
  obs::FlightRecorder r(4);
  r.set_fault_seed(1234);
  r.note_attempt(3);
  r.record(rec_at(1.0, 7));
  r.trigger("retry_exhausted", 1.5);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::flight_to_json(r), &doc, &err)) << err;
  EXPECT_EQ(doc.find("fault_seed")->number, 1234);
  EXPECT_EQ(doc.find("trigger_attempt")->number, 3);
  EXPECT_EQ(doc.find("trigger_seq")->number, 1);
}

TEST(FlightRecorderIntegration, FaultFreeSessionsRecordWithoutTriggering) {
  obs::FlightRecorder rec;
  auto cfg = state_cfg(3);
  cfg.recorder = &rec;
  repl::StateSystem sys(cfg);
  const ObjectId obj{1};
  sys.create_object(SiteId{0}, obj, "a");
  sys.sync(SiteId{1}, SiteId{0}, obj);
  EXPECT_GT(rec.total_recorded(), 0u);  // wire events landed in the ring
  EXPECT_FALSE(rec.triggered());        // bounds hold: nothing froze
  for (std::size_t i = 0; i < rec.dump().size(); ++i) {
    EXPECT_EQ(rec.dump().event(i).fault, obs::FlightFault::kNone);
  }
}

// The tracer and the flight recorder take the same TraceEvent for every wire
// message: with the recorder sized for the whole run, its fault-free records
// are exactly the tracer's wire events, field by field and in order.
TEST(FlightRecorderIntegration, WireRecordsMatchTracerEvents) {
  obs::Tracer tracer;
  obs::FlightRecorder rec(std::size_t{1} << 16);
  auto cfg = state_cfg(4);
  cfg.tracer = &tracer;
  cfg.recorder = &rec;
  cfg.net.latency_s = 0.001;
  cfg.net.faults.drop = 0.05;
  cfg.net.faults.duplicate = 0.02;
  cfg.net.faults.seed = 3;
  repl::StateSystem sys(cfg);
  wl::GeneratorConfig g;
  g.n_sites = 4;
  g.steps = 200;
  g.seed = 3;
  wl::run_state(sys, wl::generate(g));
  ASSERT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(rec.dropped(), 0u);

  std::vector<obs::TraceEvent> wire;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& e = tracer.event(i);
    switch (e.type) {
      case obs::TraceEventType::kSessionBegin:
      case obs::TraceEventType::kSessionEnd:
      case obs::TraceEventType::kElemApplied:
      case obs::TraceEventType::kElemRedundant:
      case obs::TraceEventType::kElemStraggler:
        break;  // session boundaries and receiver classifications
      default:
        wire.push_back(e);
    }
  }
  std::vector<obs::TraceEvent> recorded;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    if (rec.event(i).fault == obs::FlightFault::kNone) recorded.push_back(rec.event(i));
  }
  EXPECT_GT(rec.size(), recorded.size()) << "the lossy run must record faults too";
  ASSERT_GT(wire.size(), 0u);
  ASSERT_EQ(recorded.size(), wire.size());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const obs::TraceEvent& w = wire[i];
    const obs::TraceEvent& r = recorded[i];
    ASSERT_EQ(r.at, w.at) << "event " << i;
    ASSERT_EQ(r.session, w.session) << "event " << i;
    ASSERT_EQ(r.type, w.type) << "event " << i;
    ASSERT_EQ(r.forward, w.forward) << "event " << i;
    ASSERT_EQ(r.fault, w.fault) << "event " << i;
    ASSERT_EQ(r.site, w.site) << "event " << i;
    ASSERT_EQ(r.value, w.value) << "event " << i;
    ASSERT_EQ(r.bits, w.bits) << "event " << i;
  }
}

}  // namespace
