// The serve_read workload: an in-process net::Server (2 reactor workers) on
// the loopback interface, driven by a closed loop of 2 pipelined
// net::SyncClients, one thread each. Each client is a replica that waits for
// its reply before its next session. About 90% of sessions read the server
// replica (45% COMPARE, 45% pull), 10% push, and 25% target a shared replica.
//
// Sessions run in windows of kWindowSessions per client. The clients meet at
// a barrier between windows, so each window has one wall time and one
// session mix: the draws net::run_load makes for that window's seed. Window 0
// warms up; the rest run until --seconds have passed. Rates and latency
// percentiles are taken per window and reported as the median over windows,
// so one noisy stretch on a shared host does not move the run's figure.
#include <barrier>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "net/client.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "obs/prof.h"
#include "perfbench.h"
#include "rt/thread_pool.h"

namespace perfbench {
namespace {

namespace net = optrep::net;
namespace prof = optrep::prof;
namespace vv = optrep::vv;

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
constexpr std::uint32_t kPrefill = 64;
constexpr std::uint32_t kMaxDelta = 4;
constexpr std::size_t kSiteCapacity = 1024;
constexpr std::uint32_t kWindowSessions = 4000;  // per client
constexpr std::size_t kMinWindows = 3;           // measured, after the warm-up
constexpr int kSetUpsPerWindow = 2;
constexpr int kStoreBatches = 9;
constexpr int kStoreCalls = 1000;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

constexpr const char* kSpanCompare = "net.session.compare";
constexpr const char* kSpanPull = "net.session.pull";
constexpr const char* kSpanPush = "net.session.push";
constexpr const char* kSpanConnect = "net.connect";
constexpr const char* kSpanSnapshot = "store.snapshot";
constexpr const char* kSpanCommit = "store.commit";

constexpr std::uint32_t kReplicas = 16;
constexpr double kCompareFrac = 0.45;
constexpr double kPullFrac = 0.45 / 0.55;  // of the non-COMPARE sessions
constexpr double kSharedFrac = 0.25;

std::uint64_t window_seed(std::uint64_t seed, std::uint64_t window) {
  return optrep::rt::task_seed(seed, window);
}

net::LoadConfig load_config(std::uint64_t seed, std::uint16_t port) {
  net::LoadConfig c;
  c.port = port;
  c.kind = vv::VectorKind::kSrv;
  c.clients = kClients;
  c.sessions_per_client = kWindowSessions;
  c.replicas = kReplicas;
  c.compare_frac = kCompareFrac;
  c.pull_frac = kPullFrac;
  c.shared_frac = kSharedFrac;
  c.max_delta = kMaxDelta;
  c.seed = seed;
  c.site_capacity = kSiteCapacity;
  return c;
}

net::ServerConfig server_config(std::uint64_t seed) {
  net::ServerConfig c;
  c.workers = kWorkers;
  c.store.replicas = kReplicas;
  c.store.kind = vv::VectorKind::kSrv;
  c.store.site_capacity = kSiteCapacity;
  c.store.seed = seed;
  c.store.prefill_updates = kPrefill;
  return c;
}

// Session counts over one window: one client's, or all clients merged. Only
// a client's own tally holds latencies; merged tallies hold counts.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t completed{0};
  std::uint64_t errors{0};
  std::uint64_t compare{0};
  std::uint64_t push{0};
  std::uint64_t pull{0};
  std::uint64_t committed_pushes{0};
  std::uint64_t records_out{0};
  std::uint64_t wire_bytes{0};
  std::vector<std::uint64_t> lat_ns;  // completed sessions, client-timed
  std::string first_error;

  void add(const Tally& o) {
    attempted += o.attempted;
    completed += o.completed;
    errors += o.errors;
    compare += o.compare;
    push += o.push;
    pull += o.pull;
    committed_pushes += o.committed_pushes;
    records_out += o.records_out;
    wire_bytes += o.wire_bytes;
    if (first_error.empty()) first_error = o.first_error;
  }
};

struct Client {
  explicit Client(std::uint16_t port) : conn(options(port)) { mine.reserve(kSiteCapacity); }
  static net::SyncClient::Options options(std::uint16_t port) {
    net::SyncClient::Options o;
    o.port = port;
    return o;
  }
  net::SyncClient conn;
  vv::RotatingVector mine;  // this client's replica, kept across windows
};

struct Fixture {
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  void tear_down() {
    clients.clear();
    server.reset();
  }
};

// What setup_s times: store prefill, server start, client connects.
void set_up(Fixture& fx, std::uint64_t seed, prof::Profiler* p) {
  fx.server = std::make_unique<net::Server>(server_config(seed));
  std::string err;
  if (!fx.server->start(&err)) throw std::runtime_error("server start: " + err);
  for (unsigned k = 0; k < kClients; ++k) {
    auto c = std::make_unique<Client>(fx.server->port());
    bool ok = false;
    {
      prof::Span span(p, kSpanConnect);
      ok = c->conn.connect(&err);
    }
    if (!ok) throw std::runtime_error("connect: " + err);
    fx.clients.push_back(std::move(c));
  }
}

// Replace fx with a fresh fixture; returns the seconds set_up took.
double timed_set_up(Fixture& fx, std::uint64_t seed, prof::Profiler* p) {
  fx.tear_down();
  const auto t0 = Clock::now();
  set_up(fx, seed, p);
  return seconds_between(t0, Clock::now());
}

// Client k's sessions for one window. The draws are net::run_load's, in its
// order, so the window's per-kind counts are those of summary_json for the
// same config (run_load's separate fault stream is unused: no faults here).
void run_window(const net::LoadConfig& cfg, unsigned k, Client& c, Tally& t,
                prof::Profiler* p) {
  optrep::Rng rng(optrep::rt::task_seed(cfg.seed, k));
  const optrep::SiteId own{cfg.replicas + k};
  t.lat_ns.reserve(cfg.sessions_per_client);
  for (std::uint32_t s = 0; s < cfg.sessions_per_client; ++s) {
    const double kind_u = rng.uniform();
    const double pull_u = rng.uniform();
    const double shared_u = rng.uniform();
    const std::uint64_t replica_u = rng.below(cfg.replicas);
    const std::uint64_t delta = rng.below(std::uint64_t{cfg.max_delta} + 1);

    net::SyncClient::SessionSpec spec;
    const bool is_compare = kind_u < cfg.compare_frac;
    spec.kind = is_compare ? net::SessionKind::kCompare : net::session_kind_of(cfg.kind);
    spec.pull = !is_compare && pull_u < cfg.pull_frac;
    spec.replica = shared_u < cfg.shared_frac ? static_cast<std::uint32_t>(replica_u)
                                              : k % cfg.replicas;
    spec.mine = &c.mine;
    spec.own_site = own;
    for (std::uint64_t d = 0; d < delta; ++d) c.mine.record_update(own);

    if (!c.conn.connected()) {  // an earlier failure closed the connection
      std::string err;
      if (!c.conn.connect(&err)) {
        ++t.errors;
        if (t.first_error.empty()) t.first_error = "reconnect: " + err;
        return;
      }
    }
    ++t.attempted;
    const char* span_name = kSpanPush;
    if (is_compare) {
      ++t.compare;
      span_name = kSpanCompare;
    } else if (spec.pull) {
      ++t.pull;
      span_name = kSpanPull;
    } else {
      ++t.push;
    }

    const auto t0 = Clock::now();
    net::SyncClient::SessionResult res;
    {
      prof::Span span(p, span_name);
      res = c.conn.run_session(spec);
    }
    const auto t1 = Clock::now();

    t.wire_bytes += res.bytes_tx + res.bytes_rx;
    if (res.ok) {
      ++t.completed;
      t.lat_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
      t.records_out += res.records_out;
      if (!is_compare && !spec.pull && res.done == net::DoneStatus::kCommitted) {
        ++t.committed_pushes;
      }
    } else {
      ++t.errors;
      if (t.first_error.empty()) t.first_error = res.error.empty() ? "session failed" : res.error;
      c.conn.close();
    }
  }
}

struct Window {
  double wall_s{0};  // excludes the set-ups timed after it
  Tally t;
  double p50_us{0};
  double p90_us{0};
  double p99_us{0};
  std::uint64_t samples{0};
};

struct Pass {
  std::vector<double> setup_s;
  std::string setup_error;  // first failed side set-up
  std::vector<Window> windows;  // [0] is the warm-up
  Tally all;                    // every window, warm-up included
  double cpu_busy_frac{0};
  net::ServerStats server{};
  net::ReplicaStore::Counters store{};
  optrep::rt::OLock::Counters olock{};
  std::vector<double> snapshot_ns;  // per call, one entry per timed batch
  std::vector<double> commit_ns;
};

// Time the store's public functions on the quiesced store (after stop()):
// kStoreBatches batches of kStoreCalls calls, one span per batch.
void time_store(net::ReplicaStore& store, prof::Profiler* p, Pass& pass) {
  const std::uint32_t n = store.replicas();
  std::vector<vv::RotatingVector> snaps(n);
  for (std::uint32_t r = 0; r < n; ++r) store.snapshot(r, &snaps[r]);
  const auto per_call_ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count() / kStoreCalls;
  };
  vv::RotatingVector out;
  for (int b = 0; b < kStoreBatches; ++b) {
    const auto t0 = Clock::now();
    {
      prof::Span span(p, kSpanSnapshot);
      for (int i = 0; i < kStoreCalls; ++i) store.snapshot(static_cast<std::uint32_t>(i) % n, &out);
    }
    pass.snapshot_ns.push_back(per_call_ns(t0, Clock::now()));
  }
  // commit() needs the slot's write ticket; the stopped server holds none.
  for (std::uint32_t r = 0; r < n; ++r) {
    if (!store.acquire_write(r, {0, r})) throw std::runtime_error("store ticket busy after stop");
  }
  for (int b = 0; b < kStoreBatches; ++b) {
    const auto t0 = Clock::now();
    {
      prof::Span span(p, kSpanCommit);
      for (int i = 0; i < kStoreCalls; ++i) {
        const auto r = static_cast<std::uint32_t>(i) % n;
        if (!store.commit(r, snaps[r])) throw std::runtime_error("store commit rejected");
      }
    }
    pass.commit_ns.push_back(per_call_ns(t0, Clock::now()));
  }
  for (std::uint32_t r = 0; r < n; ++r) store.release_write(r);
}

// CPU placement. Every serving thread, the clients' and the server's, shares
// the first kClients allowed CPUs, one per closed loop; threads inherit the
// mask of the thread that creates them. On a shared VM, a handoff to an idle
// vCPU waits for the hypervisor to wake it, and that wait set the pace:
// spread over four vCPUs, serve_read read 13k-26k sessions/s across ten
// seeds, and 43k-46k confined to two.
Pass run_pass(std::uint64_t seed, double seconds, prof::Profiler* p) {
  const CpuConfinement confine(kClients);
  Pass pass;
  Fixture fx;
  pass.setup_s.push_back(timed_set_up(fx, seed, p));
  const std::uint16_t port = fx.server->port();

  std::vector<Tally> tallies(kClients);
  std::vector<std::uint64_t> lat_ns;  // the window's latencies, all clients
  lat_ns.reserve(std::size_t{kClients} * kWindowSessions);
  std::size_t window = 0;
  bool more = true;
  Clock::time_point w0 = Clock::now();
  Clock::time_point measured0{};
  Clock::time_point deadline{};
  double cpu0 = 0;
  pass.windows.reserve(4096);
  // Runs on one client thread while the others wait at the barrier.
  auto end_window = [&]() noexcept {
    const auto now = Clock::now();
    Window w;
    w.wall_s = seconds_between(w0, now);
    lat_ns.clear();
    for (Tally& t : tallies) {
      w.t.add(t);
      lat_ns.insert(lat_ns.end(), t.lat_ns.begin(), t.lat_ns.end());
      t = Tally{};
    }
    w.p50_us = quantile(lat_ns, 0.50) / 1000.0;
    w.p90_us = quantile(lat_ns, 0.90) / 1000.0;
    w.p99_us = quantile(lat_ns, 0.99) / 1000.0;
    w.samples = lat_ns.size();
    pass.windows.push_back(std::move(w));
    if (window == 0) {
      measured0 = now;
      deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
      cpu0 = cpu_seconds();
    }
    ++window;
    more = pass.windows.size() <= kMinWindows || now < deadline;
    // Set-ups of a side fixture, timed between windows while the live
    // server idles, so that setup_s samples the whole run.
    try {
      Fixture side;
      for (int i = 0; i < kSetUpsPerWindow; ++i) {
        pass.setup_s.push_back(timed_set_up(side, seed, p));
      }
    } catch (const std::exception& e) {
      if (pass.setup_error.empty()) pass.setup_error = e.what();
    }
    w0 = Clock::now();
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), end_window);
  {
    std::vector<std::jthread> threads;
    for (unsigned k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        do {
          run_window(load_config(window_seed(seed, window), port), k, *fx.clients[k], tallies[k],
                     p);
          sync.arrive_and_wait();
        } while (more);
      });
    }
  }
  const double measured_s = seconds_between(measured0, w0);
  pass.cpu_busy_frac = ratio(cpu_seconds() - cpu0, measured_s * usable_cpus());

  fx.server->stop();
  pass.server = fx.server->stats();
  pass.store = fx.server->store().counters();
  pass.olock = fx.server->store().olock_counters();
  if (p != nullptr) time_store(fx.server->store(), p, pass);
  fx.tear_down();

  for (const Window& w : pass.windows) pass.all.add(w.t);
  return pass;
}

// Output checks on one pass: no failed sessions anywhere, and the client's
// counts agree with the server's.
void check_pass(const Pass& pass, const char* which, Result& r) {
  const Tally& a = pass.all;
  const net::ServerStats& s = pass.server;
  const std::string tag = std::string(which) + " run: ";
  r.check(a.errors == 0, tag + std::to_string(a.errors) + " client errors (first: " +
                             a.first_error + ")");
  r.check(s.sessions_aborted == 0 && s.decode_errors == 0 && s.bad_hellos == 0 &&
              s.capacity_rejects == 0,
          tag + "server aborted " + std::to_string(s.sessions_aborted) + ", decode errors " +
              std::to_string(s.decode_errors) + ", bad HELLOs " + std::to_string(s.bad_hellos) +
              ", capacity rejects " + std::to_string(s.capacity_rejects));
  r.check(s.sessions_completed == a.completed,
          tag + "server completed " + std::to_string(s.sessions_completed) +
              " sessions, clients " + std::to_string(a.completed));
  r.check(s.compare_sessions == a.compare && s.push_sessions == a.push &&
              s.pull_sessions == a.pull,
          tag + "per-kind session counts differ between server and clients");
  r.check(s.commits == a.committed_pushes,
          tag + "server commits " + std::to_string(s.commits) + " != committed pushes " +
              std::to_string(a.committed_pushes));
  r.check(pass.windows.size() > kMinWindows, tag + "too few measured windows");
  r.check(pass.setup_error.empty(), tag + "side set-up failed: " + pass.setup_error);
  r.attempted += a.attempted;
  r.failed += a.attempted - std::min(a.attempted, a.completed) + s.sessions_aborted + s.bad_hellos;
}

// The first window's counts must equal the deterministic summary that
// net::run_load produces for the same config, run against a fresh server.
void check_reference(std::uint64_t seed, const Tally& first, Result& r) {
  net::Server ref(server_config(seed));
  std::string err;
  if (!ref.start(&err)) throw std::runtime_error("reference server start: " + err);
  const net::LoadConfig cfg = load_config(window_seed(seed, 0), ref.port());
  const net::LoadReport want = net::run_load(cfg);
  ref.stop();
  net::LoadReport got;
  got.attempted = first.attempted;
  got.completed = first.completed;
  got.errors = first.errors;
  got.compare_sessions = first.compare;
  got.push_sessions = first.push;
  got.pull_sessions = first.pull;
  const std::string a = net::summary_json(cfg, got);
  const std::string b = net::summary_json(cfg, want);
  r.check(want.errors == 0, "reference load run had errors: " + want.first_error);
  r.check(a == b, "window 0 summary " + a + " != net::run_load summary " + b);
}

struct Figures {
  double sessions_per_s;
  double exchanges_per_s;
  double p50_us;
  double p90_us;
  double p99_us;
  std::uint64_t samples;
};

// Median over the measured windows of each window's rate and percentiles.
Figures figures(const Pass& pass) {
  std::vector<double> done, tried, p50, p90, p99;
  std::uint64_t samples = 0;
  for (std::size_t i = 1; i < pass.windows.size(); ++i) {
    const Window& w = pass.windows[i];
    done.push_back(ratio(static_cast<double>(w.t.completed), w.wall_s));
    tried.push_back(ratio(static_cast<double>(w.t.attempted), w.wall_s));
    p50.push_back(w.p50_us);
    p90.push_back(w.p90_us);
    p99.push_back(w.p99_us);
    samples += w.samples;
  }
  return {median(done), median(tried), median(p50), median(p90), median(p99), samples};
}

// Quantile q of the durations of the spans named in `names`, in
// microseconds (the ring keeps the newest spans).
double span_quantile_us(const prof::Profiler& p, std::initializer_list<const char*> names,
                        double q) {
  std::vector<std::uint64_t> d;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (const char* name : names) {
      if (std::strcmp(p.span(i).name, name) == 0) d.push_back(p.span(i).dur_ns);
    }
  }
  return quantile(d, q) / 1000.0;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result r;
  const Pass plain = run_pass(opt.seed, opt.seconds, nullptr);
  check_pass(plain, "untraced", r);
  check_reference(opt.seed, plain.windows.front().t, r);
  const Figures f = figures(plain);
  r.end_to_end["sessions_per_s"] = f.sessions_per_s;
  r.end_to_end["exchanges_per_s"] = f.exchanges_per_s;
  r.end_to_end["latency_p50_us"] = f.p50_us;
  r.end_to_end["latency_p90_us"] = f.p90_us;
  r.end_to_end["wire_bytes_per_session"] =
      ratio(static_cast<double>(plain.all.wire_bytes), static_cast<double>(plain.all.completed));
  r.end_to_end["setup_s"] = median(plain.setup_s);
  r.info["latency_samples"] = static_cast<double>(f.samples);
  r.info["measured_windows"] = static_cast<double>(plain.windows.size() - 1);
  r.info["latency_p99_us"] = f.p99_us;
  r.info["setup_samples"] = static_cast<double>(plain.setup_s.size());
  if (f.samples < 100000) {
    r.warnings.push_back("only " + std::to_string(f.samples) + " latency samples (< 10^5)");
  }

  if (opt.trace) {
    prof::Profiler spans(kSpanCapacity);
    optrep::obs::Registry sums;  // exact per-name span totals, whatever the ring drops
    spans.set_sink(&sums);
    prof::set_global_profiler(&spans);
    const Pass traced = run_pass(opt.seed, opt.seconds, &spans);
    prof::set_global_profiler(nullptr);
    check_pass(traced, "traced", r);
    const Figures tf = figures(traced);
    const net::ServerStats& s = traced.server;
    auto& L = r.per_layer;
    L["net.connect_us"] = span_quantile_us(spans, {kSpanConnect}, 0.5);
    L["net.session_us.compare"] = span_quantile_us(spans, {kSpanCompare}, 0.5);
    L["net.session_us.pull"] = span_quantile_us(spans, {kSpanPull}, 0.5);
    L["net.session_us.push"] = span_quantile_us(spans, {kSpanPush}, 0.5);
    L["net.session_p99_us"] = span_quantile_us(spans, {kSpanCompare, kSpanPull, kSpanPush}, 0.99);
    L["net.records_per_session"] = ratio(static_cast<double>(traced.all.records_out),
                                         static_cast<double>(traced.all.completed));
    L["net.parked"] = static_cast<double>(s.parked);
    L["net.backpressure_pauses"] = static_cast<double>(s.backpressure_pauses);
    L["net.aborted"] = static_cast<double>(s.sessions_aborted + s.bad_hellos);
    L["net.decode_errors"] = static_cast<double>(s.decode_errors);
    L["net.cpu_busy_frac"] = plain.cpu_busy_frac;
    L["store.snapshot_ns"] = median(traced.snapshot_ns);
    L["store.commit_ns"] = median(traced.commit_ns);
    L["store.snapshot_retry_ratio"] = ratio(static_cast<double>(traced.store.snapshot_retries),
                                            static_cast<double>(traced.store.snapshots));
    L["store.snapshot_fallbacks"] = static_cast<double>(traced.store.snapshot_fallbacks);
    L["store.write_park_ratio"] = ratio(static_cast<double>(traced.store.write_parks),
                                        static_cast<double>(s.push_sessions));
    L["rt.olock.opt_retries_per_acq"] = ratio(static_cast<double>(traced.olock.opt_retries),
                                              static_cast<double>(traced.olock.acquisitions));
    L["rt.olock.queue_waits_per_acq"] = ratio(static_cast<double>(traced.olock.queue_waits),
                                              static_cast<double>(traced.olock.acquisitions));
    L["obs.trace_overhead_frac"] = ratio(f.sessions_per_s, tf.sessions_per_s) - 1.0;
    // Coverage: the session spans' share of the clients' time in the windows.
    double window_s = 0;
    for (const Window& w : traced.windows) window_s += w.wall_s;
    double session_ns = 0;
    for (const char* name : {kSpanCompare, kSpanPull, kSpanPush}) {
      session_ns += static_cast<double>(sums.histogram(std::string(name) + ".wall_ns").sum());
    }
    L["obs.trace_coverage"] = ratio(session_ns * 1e-9, window_s * kClients);
    L["obs.latency_samples"] = static_cast<double>(f.samples);
    if (L["obs.trace_coverage"] < 0.9) {
      r.warnings.push_back("session spans cover only " + std::to_string(L["obs.trace_coverage"]) +
                           " of the clients' time (< 0.9)");
    }
    r.info["spans_recorded"] = static_cast<double>(spans.total_recorded());
    r.info["spans_dropped"] = static_cast<double>(spans.dropped());
    write_spans(opt, opt.workload, spans, r);
  }
  r.end_to_end["peak_rss_mib"] = peak_rss_mib();
  return r;
}

}  // namespace perfbench
