// The gossip workload: sim::ScenarioWorld on small-world meshes of 10^4
// sites (degree 3), driven through local_update and gossip_round by a fixed
// script: kBursts times (kBurstWrites writes, then kBurstRounds gossip
// rounds), then gossip until no site is dirty. One thread; no sockets.
//
// A run draws kMeshes SRV worlds (16 writers) and kMeshes SYNCG worlds (one
// writer) from its seed, and repeats the whole script on them in turn, each
// time on a fresh world, until --seconds have passed: 20 to 30 repetitions
// in 30 s. The SRV worlds measure the vector layers (vv, the arena); the
// SYNCG worlds measure the graph layer (CausalGraph, sync_graph), which the
// vector worlds bypass; both measure sim. Every repetition of a world must
// produce the same counts (the determinism check).
//
// Each repetition runs on one CPU, and successive repetitions of a world
// take the allowed CPUs in turn. On a shared VM one vCPU can run this code
// at two-thirds of another's speed for seconds at a time (the same script
// pinned to each of four vCPUs in turn took 0.14 s to 0.23 s, and which
// vCPU was slow changed from one pass to the next), so a run that stays on
// one vCPU measures that vCPU's neighbours.
//
// The traced run installs a prof::Profiler with a histogram sink, one
// profiler for the SRV worlds and one for the SYNCG worlds. The benchmark's
// own sim.round / sim.update spans are top level, and the vv.sync* and
// sim.dispatch spans inside src/ nest under them. Per-round self times come
// from the sink's exact per-name sums, read before and after each round, so
// they need no span storage and no span is ever lost.
#include <memory>
#include <numeric>
#include <string>
#include <string_view>

#include "obs/prof.h"
#include "perfbench.h"
#include "rt/thread_pool.h"
#include "sim/scenario.h"

namespace perfbench {
namespace {

namespace prof = optrep::prof;
using optrep::sim::ScenarioAlgo;
using optrep::sim::ScenarioWorld;

constexpr std::uint32_t kSites = 10000;
constexpr std::uint32_t kDegree = 3;
constexpr std::uint32_t kBursts = 8;
constexpr std::uint32_t kBurstWrites = 16;
constexpr std::uint32_t kBurstRounds = 4;
constexpr std::uint32_t kMeshes = 3;  // per algorithm
constexpr std::uint32_t kWorlds = 2 * kMeshes;

constexpr const char* kSpanRound = "sim.round";
constexpr const char* kSpanUpdate = "sim.update";

ScenarioWorld::Config world_config(bool syncg, std::uint64_t seed) {
  ScenarioWorld::Config c;
  c.algo = syncg ? ScenarioAlgo::kSyncg : ScenarioAlgo::kSrv;
  c.sites = kSites;
  c.writers = syncg ? 1 : 16;
  c.mesh = optrep::sim::MeshKind::kSmallWorld;
  c.degree = kDegree;
  c.seed = seed;
  c.cost = optrep::CostModel{.n = kSites, .m = 1 << 16};  // as optrep_cli scenario
  return c;
}

// A run's worlds, SRV and SYNCG alternating, each with its own mesh seed
// drawn from the run's. Several meshes per algorithm because what a session
// carries depends on the mesh: with one SYNCG mesh per run,
// wire_bytes_per_session spread 0.13 of its median over five seeds.
std::vector<ScenarioWorld::Config> world_configs(std::uint64_t seed) {
  std::vector<ScenarioWorld::Config> v;
  for (std::uint32_t w = 0; w < kWorlds; ++w) {
    v.push_back(world_config(w % 2 == 1, optrep::rt::task_seed(seed, w)));
  }
  return v;
}

// Exact running totals of span durations by name (the profilers' sink).
struct SpanSums {
  explicit SpanSums(optrep::obs::Registry& reg)
      : round(reg.histogram("sim.round.wall_ns")),
        update(reg.histogram("sim.update.wall_ns")),
        dispatch(reg.histogram("sim.dispatch.wall_ns")),
        syncb(reg.histogram("vv.syncb.wall_ns")),
        syncc(reg.histogram("vv.syncc.wall_ns")),
        syncs(reg.histogram("vv.syncs.wall_ns")) {}
  std::uint64_t sync() const { return syncb.sum() + syncc.sum() + syncs.sum(); }
  std::uint64_t top() const { return round.sum() + update.sum(); }

  const optrep::obs::Histogram& round;
  const optrep::obs::Histogram& update;
  const optrep::obs::Histogram& dispatch;
  const optrep::obs::Histogram& syncb;
  const optrep::obs::Histogram& syncc;
  const optrep::obs::Histogram& syncs;
};

// What a traced run records into: the sink's sums, and a profiler per
// algorithm, since the spans nest differently in the two kinds of world.
struct Tracing {
  const SpanSums* sums;
  prof::Profiler* vector_spans;
  prof::Profiler* graph_spans;
};

// One repetition of the script on a fresh world.
struct Rep {
  ScenarioWorld::Totals totals{};
  std::uint32_t world{0};  // index into the run's worlds
  bool vector_world{false};
  bool converged{false};
  bool truncated{false};
  std::uint64_t convergence_rounds{0};  // rounds from the last update to convergence
  double setup_s{0};
  double run_s{0};  // the script, world construction excluded
  std::vector<double> round_us;
  std::vector<std::uint32_t> round_exchanges;
  optrep::vv::Arena::Stats arena{};
  // Traced repetitions only.
  std::uint64_t top_ns{0};         // Σ sim.update + sim.round spans
  std::uint64_t round_self_ns{0};  // Σ round − its direct in-program children
  std::uint64_t sync_self_ns{0};   // Σ vv.sync* − their sim.dispatch children
  std::uint64_t dispatch_ns{0};
  std::uint64_t bad_rounds{0};  // children that do not fit inside their round
};

Rep run_rep(const ScenarioWorld::Config& cfg, const SpanSums* sums, prof::Profiler* p) {
  Rep rep;
  rep.vector_world = cfg.algo != ScenarioAlgo::kSyncg;
  const bool vector_world = rep.vector_world;
  const auto c0 = Clock::now();
  auto world = std::make_unique<ScenarioWorld>(cfg);
  const auto s0 = Clock::now();
  rep.setup_s = seconds_between(c0, s0);
  const std::uint64_t top0 = sums != nullptr ? sums->top() : 0;

  std::uint64_t last_update_round = 0;
  bool seen = true;
  const auto round = [&] {
    std::uint64_t r0 = 0, y0 = 0, d0 = 0;
    if (sums != nullptr) {
      r0 = sums->round.sum();
      y0 = sums->sync();
      d0 = sums->dispatch.sum();
    }
    const auto a = Clock::now();
    std::uint32_t exchanges = 0;
    {
      prof::Span span(p, kSpanRound);
      exchanges = world->gossip_round();
    }
    const auto b = Clock::now();
    rep.round_exchanges.push_back(exchanges);
    if (sums == nullptr) {
      rep.round_us.push_back(std::chrono::duration<double, std::micro>(b - a).count());
    } else {
      const std::uint64_t round_ns = sums->round.sum() - r0;
      const std::uint64_t sync_ns = sums->sync() - y0;
      const std::uint64_t dispatch_ns = sums->dispatch.sum() - d0;
      // vv.sync* spans are the round's children in vector worlds, with
      // sim.dispatch under them; sync_graph has no span, so in SYNCG worlds
      // sim.dispatch hangs directly off the round.
      const std::uint64_t direct = vector_world ? sync_ns : dispatch_ns;
      if (direct > round_ns || (vector_world && dispatch_ns > sync_ns)) ++rep.bad_rounds;
      rep.round_us.push_back(static_cast<double>(round_ns) / 1000.0);
      rep.round_self_ns += round_ns - std::min(direct, round_ns);
      if (vector_world) rep.sync_self_ns += sync_ns - std::min(dispatch_ns, sync_ns);
      rep.dispatch_ns += dispatch_ns;
    }
    if (!seen && world->converged()) {
      seen = true;
      rep.convergence_rounds = world->totals().rounds - last_update_round;
    }
  };

  for (std::uint32_t b = 0; b < kBursts; ++b) {
    for (std::uint32_t w = 0; w < kBurstWrites; ++w) {
      prof::Span span(p, kSpanUpdate);
      world->local_update(world->next_writer());
    }
    last_update_round = world->totals().rounds;
    seen = false;
    for (std::uint32_t r = 0; r < kBurstRounds; ++r) round();
  }
  const std::uint32_t cap = 4 * cfg.sites + 64;
  for (std::uint32_t r = 0; r < cap && world->dirty_count() > 0; ++r) round();

  rep.run_s = seconds_between(s0, Clock::now());
  rep.truncated = world->dirty_count() > 0;
  rep.converged = world->converged();
  rep.totals = world->totals();
  rep.arena = world->arena_stats();
  if (sums != nullptr) rep.top_ns = sums->top() - top0;
  return rep;
}

// Repetitions, taking the worlds in turn, until `seconds` have passed and
// each world has run at least `min_each` times. With `tr`, each repetition
// records into its algorithm's profiler, installed as the global one.
std::vector<Rep> run_reps(const std::vector<ScenarioWorld::Config>& worlds, double seconds,
                          std::size_t min_each, const Tracing* tr) {
  std::vector<Rep> reps;
  const auto cpus = static_cast<std::size_t>(usable_cpus());
  const auto t0 = Clock::now();
  do {
    const std::size_t j = reps.size() / worlds.size();  // the world's j-th repetition
    const auto w = static_cast<std::uint32_t>(reps.size() % worlds.size());
    const CpuConfinement on(1, static_cast<unsigned>((j + w) % cpus));
    prof::Profiler* p = nullptr;
    if (tr != nullptr) {
      p = worlds[w].algo == ScenarioAlgo::kSyncg ? tr->graph_spans : tr->vector_spans;
      prof::set_global_profiler(p);
    }
    reps.push_back(run_rep(worlds[w], tr != nullptr ? tr->sums : nullptr, p));
    reps.back().world = w;
  } while (reps.size() < min_each * worlds.size() ||
           seconds_between(t0, Clock::now()) < seconds);
  if (tr != nullptr) prof::set_global_profiler(nullptr);
  return reps;
}

bool same_counts(const Rep& a, const Rep& b) {
  const auto& x = a.totals;
  const auto& y = b.totals;
  return x.rounds == y.rounds && x.updates == y.updates && x.compares == y.compares &&
         x.sessions == y.sessions && x.bits == y.bits && x.wire_bytes == y.wire_bytes &&
         x.msgs == y.msgs && x.elems_applied == y.elems_applied &&
         x.nodes_applied == y.nodes_applied && a.convergence_rounds == b.convergence_rounds;
}

// firsts[w] is world w's first untraced repetition.
void check_reps(const std::vector<Rep>& reps, const std::vector<const Rep*>& firsts,
                const char* which, Result& r) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string tag = std::string(which) + " repetition " + std::to_string(i) + " (world " +
                            std::to_string(rep.world) + "): ";
    const bool ok = rep.converged && !rep.truncated;
    r.check(rep.converged, tag + "world did not converge");
    r.check(!rep.truncated, tag + "quiesce phase hit its round cap");
    r.check(same_counts(rep, *firsts[rep.world]),
            tag + "counts differ from the first repetition of this world (nondeterminism)");
    r.attempted += rep.totals.compares;
    if (!ok) r.failed += rep.totals.compares;
  }
}

// Span names must sit at the depth the nesting implies (checked on the
// spans the ring retained).
std::uint64_t misplaced_spans(const prof::Profiler& p, bool vector_world) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const prof::SpanRecord& s = p.span(i);
    const std::string_view n = s.name;
    std::uint32_t want = 0;
    if (n == kSpanRound || n == kSpanUpdate) {
      want = 0;
    } else if (n.substr(0, 7) == "vv.sync") {
      want = 1;
    } else if (n == "sim.dispatch") {
      want = vector_world ? 2 : 1;
    } else {
      ++bad;
      continue;
    }
    if (s.depth != want) ++bad;
  }
  return bad;
}

// Per-exchange latency in one repetition: every exchange is charged the mean
// exchange time of its round, and q is taken over all the repetition's
// exchanges. Unlike a quantile over rounds, this weights the ~20 rounds that
// carry the wave by the work they do, instead of landing on the steep ramp
// between them. Used for the tail only: the rounds' exchange costs fall in
// two clusters (rounds full of reconciliations near 7 us, the rest near
// 4.5 us), and a median between them flipped from one cluster to the other
// across seeds.
double exchange_latency_us(const Rep& rep, double q) {
  std::vector<std::pair<double, std::uint32_t>> cost;  // (µs per exchange, exchanges)
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rep.round_us.size(); ++i) {
    const std::uint32_t n = rep.round_exchanges[i];
    if (n == 0) continue;
    cost.emplace_back(rep.round_us[i] / n, n);
    total += n;
  }
  if (total == 0) return 0.0;
  std::sort(cost.begin(), cost.end());
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (const auto& [c, n] : cost) {
    seen += n;
    if (seen > target) return c;
  }
  return cost.back().first;
}

// Quantile q of f over each world's repetitions, one entry per world.
template <class F>
std::vector<double> per_world(const std::vector<Rep>& reps, double q, F f) {
  std::vector<double> out(kWorlds);
  for (std::uint32_t w = 0; w < kWorlds; ++w) {
    std::vector<double> v;
    for (const Rep& rep : reps) {
      if (rep.world == w) v.push_back(f(rep));
    }
    out[w] = quantile(v, q);
  }
  return out;
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// Timed figures are taken at the fast quartile of each world's repetitions:
// the time a quarter of them undercut. The repetitions of a world do the same
// work, and load from other tenants of a shared host only ever slows one
// down, so the fast quartile follows the program's own speed. With one world
// per run, its quartile spread over five seeds was 0.12 of the median,
// against 0.17 for the median repetition.
constexpr double kFastQuartile = 0.25;

// Counts of one repetition per world, summed over the worlds that `pick`.
template <class Pick>
ScenarioWorld::Totals summed(const std::vector<const Rep*>& firsts, Pick pick) {
  ScenarioWorld::Totals t{};
  for (const Rep* f : firsts) {
    if (!pick(*f)) continue;
    t.rounds += f->totals.rounds;
    t.compares += f->totals.compares;
    t.sessions += f->totals.sessions;
    t.bits += f->totals.bits;
    t.wire_bytes += f->totals.wire_bytes;
    t.msgs += f->totals.msgs;
    t.elems_applied += f->totals.elems_applied;
    t.nodes_applied += f->totals.nodes_applied;
  }
  return t;
}

// Per-round self times over the traced repetitions that `pick`, in µs.
struct SelfTimes {
  double round_self_us{0};
  double sync_self_us{0};
  double dispatch_us{0};
};

template <class Pick>
SelfTimes self_times(const std::vector<Rep>& traced, Pick pick) {
  std::uint64_t rounds = 0, round_self = 0, sync_self = 0, dispatch = 0;
  for (const Rep& rep : traced) {
    if (!pick(rep)) continue;
    rounds += rep.totals.rounds;
    round_self += rep.round_self_ns;
    sync_self += rep.sync_self_ns;
    dispatch += rep.dispatch_ns;
  }
  const double per_round_us = rounds > 0 ? 1.0 / (1000.0 * static_cast<double>(rounds)) : 0.0;
  return {static_cast<double>(round_self) * per_round_us,
          static_cast<double>(sync_self) * per_round_us,
          static_cast<double>(dispatch) * per_round_us};
}

}  // namespace

Result run_gossip(const Options& opt) {
  const std::vector<ScenarioWorld::Config> worlds = world_configs(opt.seed);
  Result r;

  const double cpu0 = cpu_seconds();
  const auto wall0 = Clock::now();
  const std::vector<Rep> plain = run_reps(worlds, opt.seconds, 2, nullptr);
  // One thread: the share of the one CPU it holds at a time.
  const double cpu_busy_frac = ratio(cpu_seconds() - cpu0, seconds_between(wall0, Clock::now()));
  std::vector<const Rep*> firsts(kWorlds);  // each world's first repetition
  for (std::uint32_t w = 0; w < kWorlds; ++w) firsts[w] = &plain[w];
  check_reps(plain, firsts, "untraced", r);

  const auto any = [](const Rep&) { return true; };
  const auto vector_only = [](const Rep& x) { return x.vector_world; };
  const auto graph_only = [](const Rep& x) { return !x.vector_world; };
  const ScenarioWorld::Totals t = summed(firsts, any);
  const ScenarioWorld::Totals tv = summed(firsts, vector_only);
  const ScenarioWorld::Totals tg = summed(firsts, graph_only);
  const double sessions = static_cast<double>(t.sessions);
  std::uint64_t latency_samples = 0;
  for (const Rep& rep : plain) latency_samples += rep.totals.compares;

  // The run's figures are those of the script on every world once, each at
  // its fast-quartile time.
  const std::vector<double> fast_s =
      per_world(plain, kFastQuartile, [](const Rep& x) { return x.run_s; });
  const double script_s = sum(fast_s);
  r.end_to_end["sessions_per_s"] = ratio(sessions, script_s);
  r.end_to_end["exchanges_per_s"] = ratio(t.compares, script_s);
  r.end_to_end["latency_p50_us"] = ratio(1e6 * script_s, t.compares);
  r.end_to_end["latency_p90_us"] =
      sum(per_world(plain, kFastQuartile, [](const Rep& x) { return exchange_latency_us(x, 0.90); })) /
      kWorlds;
  r.end_to_end["wire_bytes_per_session"] = ratio(t.wire_bytes, sessions);
  // Setting up every world once, each at its median construction time.
  r.end_to_end["setup_s"] = sum(per_world(plain, 0.5, [](const Rep& x) { return x.setup_s; }));

  double vector_s = 0, graph_s = 0;
  for (std::uint32_t w = 0; w < kWorlds; ++w) (firsts[w]->vector_world ? vector_s : graph_s) += fast_s[w];
  r.info["srv_exchanges_per_s"] = ratio(tv.compares, vector_s);
  r.info["syncg_exchanges_per_s"] = ratio(tg.compares, graph_s);
  r.info["srv_wire_bytes_per_session"] = ratio(tv.wire_bytes, tv.sessions);
  r.info["syncg_wire_bytes_per_session"] = ratio(tg.wire_bytes, tg.sessions);
  r.info["latency_p99_us"] =
      sum(per_world(plain, kFastQuartile, [](const Rep& x) { return exchange_latency_us(x, 0.99); })) /
      kWorlds;
  r.info["latency_samples"] = static_cast<double>(latency_samples);
  r.info["worlds"] = kWorlds;
  r.info["repetitions"] = static_cast<double>(plain.size());
  r.info["script_s"] = script_s;
  r.info["script_median_s"] = sum(per_world(plain, 0.5, [](const Rep& x) { return x.run_s; }));
  r.info["rounds"] = static_cast<double>(t.rounds);
  r.info["model_bits"] = static_cast<double>(t.bits);
  r.info["wire_bytes"] = static_cast<double>(t.wire_bytes);

  double convergence_rounds = 0, arena_live = 0, arena_reserved = 0;
  for (const Rep* f : firsts) {
    convergence_rounds += static_cast<double>(f->convergence_rounds) / kWorlds;
    if (f->vector_world) {  // SYNCG worlds keep no vectors in the arena
      arena_live += static_cast<double>(f->arena.live_bytes) / kMeshes;
      arena_reserved += static_cast<double>(f->arena.reserved_bytes) / kMeshes;
    }
  }
  r.info["convergence_rounds"] = convergence_rounds;

  if (opt.trace) {
    prof::Profiler vector_spans, graph_spans;
    optrep::obs::Registry reg;
    vector_spans.set_sink(&reg);
    graph_spans.set_sink(&reg);
    const SpanSums sums(reg);
    const Tracing tr{&sums, &vector_spans, &graph_spans};
    const std::vector<Rep> traced = run_reps(worlds, opt.seconds, 1, &tr);
    check_reps(traced, firsts, "traced", r);

    std::vector<double> traced_rounds;
    std::uint64_t bad_rounds = 0;
    for (const Rep& rep : traced) {
      traced_rounds.insert(traced_rounds.end(), rep.round_us.begin(), rep.round_us.end());
      bad_rounds += rep.bad_rounds;
    }
    const SelfTimes all_self = self_times(traced, any);
    auto& L = r.per_layer;
    L["net.cpu_busy_frac"] = cpu_busy_frac;
    L["sim.round_us.p50"] = quantile(traced_rounds, 0.50);
    L["sim.round_us.p99"] = quantile(traced_rounds, 0.99);
    L["sim.round_self_us"] = all_self.round_self_us;
    L["sim.dispatch_self_us"] = all_self.dispatch_us;
    L["sim.exchanges_per_round"] = ratio(t.compares, t.rounds);
    L["sim.session_yield"] = ratio(t.sessions, t.compares);
    L["sim.msgs_per_session"] = ratio(t.msgs, sessions);
    L["sim.convergence_rounds"] = convergence_rounds;
    L["arena.live_bytes"] = arena_live;
    L["arena.reserved_bytes"] = arena_reserved;
    L["vv.sync_self_us"] = self_times(traced, vector_only).sync_self_us;
    L["vv.elems_per_session"] = ratio(tv.elems_applied, tv.sessions);
    L["vv.model_bits_per_session"] = ratio(tv.bits, tv.sessions);
    L["vv.wire_bits_per_session"] = ratio(8.0 * static_cast<double>(tv.wire_bytes), tv.sessions);
    L["graph.round_self_us"] = self_times(traced, graph_only).round_self_us;
    L["graph.nodes_per_session"] = ratio(tg.nodes_applied, tg.sessions);
    L["obs.trace_overhead_frac"] =
        ratio(sum(per_world(traced, kFastQuartile, [](const Rep& x) { return x.run_s; })),
              script_s) -
        1.0;
    std::vector<double> coverage;
    for (const Rep& rep : traced) {
      coverage.push_back(ratio(static_cast<double>(rep.top_ns) * 1e-9, rep.run_s));
    }
    L["obs.trace_coverage"] = median(coverage);
    L["obs.latency_samples"] = static_cast<double>(latency_samples);

    r.check(bad_rounds == 0, std::to_string(bad_rounds) +
                                 " rounds whose child spans do not fit inside the round");
    const std::uint64_t misplaced =
        misplaced_spans(vector_spans, true) + misplaced_spans(graph_spans, false);
    r.check(misplaced == 0, std::to_string(misplaced) + " spans at an unexpected nesting depth");
    if (L["obs.trace_coverage"] < 0.9) {
      r.warnings.push_back("top-level spans cover only " + std::to_string(L["obs.trace_coverage"]) +
                           " of the script's wall time (< 0.9)");
    }
    r.info["spans_recorded"] =
        static_cast<double>(vector_spans.total_recorded() + graph_spans.total_recorded());
    write_spans(opt, opt.workload + ".srv", vector_spans, r);
    write_spans(opt, opt.workload + ".syncg", graph_spans, r);
  }
  r.end_to_end["peak_rss_mib"] = peak_rss_mib();
  return r;
}

}  // namespace perfbench
