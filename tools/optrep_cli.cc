// optrep_cli — run parameterized replication workloads from the command line.
//
//   optrep_cli state   [options]  drive a state-transfer system (BRV/CRV/SRV)
//   optrep_cli op      [options]  drive an operation-transfer system (SYNCG)
//   optrep_cli records [options]  drive a keyed record store with
//                                 semantic-over-syntactic conflict detection
//   optrep_cli sweep   [options]  run K independent state-transfer runs with
//                                 split seeds, sharded across a thread pool;
//                                 rows come out in run order for any
//                                 --threads value and per-worker metrics are
//                                 merged after the join
//   optrep_cli scenario [options] run a large-world gossip scenario: 10^4–10^6
//                                 sites on a mesh topology, arena-backed
//                                 replicas, scripted churn / partition-heal /
//                                 flash-crowd phases (src/sim/scenario.h)
//
// Common options:
//   --sites=N --objects=N --steps=N --update-prob=F --seed=N
//   --topology=gossip|ring|star|clustered
//   --mode=ideal|saw|pipelined [--latency-ms=F --bandwidth=BITS_PER_S]
//   --csv           one machine-readable result row (with header)
//   --json          full run report (schema optrep.run/v1, see
//                   docs/OBSERVABILITY.md): workload tags, totals, Table 2
//                   bound checks, and the system's metrics registry
//   --trace-out=F   write the structured protocol event trace to F as JSON
//                   (state and records commands; op has no vv sessions)
//   --profile-out=F write the wall-clock span profile to F as Chrome-trace /
//                   Perfetto JSON (schema optrep.profile/v1; open in
//                   chrome://tracing or ui.perfetto.dev). Also feeds
//                   "<span>.wall_ns" histograms into the run's metrics
//   --timeline-out=F      write a time-series timeline of the run's metrics —
//                         including the repl.divergence convergence probe —
//                         to F (schema optrep.timeline/v1; state and sweep).
//                         state samples every --sample-every sessions; sweep
//                         emits one sample per run, byte-identical for any
//                         --threads value
//   --sample-every=N      timeline sampling period in sync sessions (state;
//                         default 16; must be a positive integer)
//   --causal-out=F        write the causal propagation trace to F (schema
//                         optrep.causal/v1, see docs/OBSERVABILITY.md): one
//                         trace per originating update, spans per sync hop /
//                         retry attempt, wire + fault + apply edges, kDeliver
//                         and kConverge closure events. state writes one run;
//                         sweep writes a "runs" array assembled in config
//                         order, byte-identical for any --threads value. Feed
//                         the file to tools/optrep_trace for propagation
//                         trees and the convergence critical path
//   --dump-on-violation=F arm a protocol flight recorder and write the frozen
//                         ring of the last protocol events to F (schema
//                         optrep.flight/v1) when a Table 2 bound violation,
//                         typed decode error, or retry exhaustion fires
//                         (state and sweep)
// state options:
//   --kind=brv|crv|srv   --manual   (manual conflict resolution)
// op options:
//   --log-limit=N        (hybrid transfer; 0 = unlimited)
//   --full-graph         (baseline instead of SYNCG)
// records options:
//   --overlap=F --key-pool=N   (shared-key write probability / pool size)
//   --flag                     (flag true conflicts instead of LWW)
// sweep options:
//   --seeds=K            number of independent runs (seed_k = task_seed(seed, k))
//   --threads=N          worker threads (> 0); for 'state' this also selects
//                        the sharded parallel batch engine (even at N=1)
// scenario options:
//   --algo=brv|crv|srv|syncg   replication algorithm (default srv)
//   --writers=N          writer-pool size (bounds vector width; brv and syncg
//                        require exactly 1)
//   --mesh=ring|small-world|scale-free|geo   topology family (default ring)
//   --degree=N           mesh degree knob (lattice k / BA attachment m)
//   --script=S           named preset (converge | partition-heal | churn |
//                        flash-crowd) or a phase list like
//                        "warmup:64,quiesce,partition,warmup:32,quiesce,heal,quiesce"
//   scenario also honors --sites, --seed, --mode/--latency-ms/--bandwidth,
//   --csv/--json, and --timeline-out/--sample-every (samples every N rounds)
// fault options (state, records, sweep):
//   --loss=P --dup=P --reorder=P --corrupt=P   per-message fault probabilities
//   --fault-seed=N       fault stream seed (independent of --seed)
//
// Examples:
//   optrep_cli state --kind=srv --sites=32 --steps=5000 --update-prob=0.7
//   optrep_cli op --sites=12 --log-limit=64 --csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "obs/causal.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/prof.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "repl/record_system.h"
#include "rt/sweep.h"
#include "rt/thread_pool.h"
#include "tools/cli_util.h"
#include "workload/report.h"
#include "workload/scenario.h"
#include "workload/trace.h"

using namespace optrep;

namespace {

struct Args {
  std::string command;
  std::uint32_t sites{16};
  std::uint32_t objects{1};
  std::uint32_t steps{2000};
  double update_prob{0.5};
  std::uint64_t seed{1};
  wl::Topology topology{wl::Topology::kRandomGossip};
  vv::TransferMode mode{vv::TransferMode::kIdeal};
  double latency_ms{0};
  double bandwidth{0};  // 0 = infinite
  vv::VectorKind kind{vv::VectorKind::kSrv};
  bool manual{false};
  std::uint32_t log_limit{0};
  bool full_graph{false};
  bool csv{false};
  bool json{false};
  std::string trace_out;
  std::string profile_out;
  // Time-series telemetry + flight recorder (state and sweep commands).
  std::string timeline_out;
  std::uint32_t sample_every{16};
  std::string dump_out;
  std::string causal_out;
  double overlap{0.2};
  std::uint32_t key_pool{16};
  bool flag_policy{false};
  std::uint32_t sweep_seeds{8};
  unsigned threads{1};
  // 'state': an explicit --threads routes through the sharded batch engine
  // (StateSystem::run_batch) even at N=1, so t1 output is byte-comparable
  // against tN output of the same engine.
  bool threads_set{false};
  // Fault injection (state/records/sweep; op has no recovery path).
  double loss{0};
  double dup{0};
  double reorder{0};
  double corrupt{0};
  std::uint64_t fault_seed{1};
  // 'scenario': large-world gossip engine (src/sim/scenario.h).
  sim::ScenarioAlgo algo{sim::ScenarioAlgo::kSrv};
  std::uint32_t writers{8};
  sim::MeshKind mesh{sim::MeshKind::kRing};
  std::uint32_t degree{1};
  std::string script{"converge"};
  // Option names seen on the command line (through the '='), for
  // command/flag compatibility checks after the parse loop.
  std::vector<std::string> seen;

  bool saw(std::string_view name) const {
    for (const std::string& s : seen) {
      if (s == name) return true;
    }
    return false;
  }

  bool faults_requested() const {
    return loss > 0 || dup > 0 || reorder > 0 || corrupt > 0;
  }
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: optrep_cli <state|op|records|sweep|scenario> [--sites=N] [--objects=N]\n"
               "       [--steps=N] [--update-prob=F] [--seed=N]\n"
               "       [--topology=gossip|ring|star|clustered]\n"
               "       [--mode=ideal|saw|pipelined] [--latency-ms=F] [--bandwidth=F]\n"
               "       [--kind=brv|crv|srv] [--manual] [--log-limit=N] [--full-graph]\n"
               "       [--csv] [--json] [--trace-out=FILE] [--profile-out=FILE]\n"
               "       [--timeline-out=FILE] [--sample-every=N] [--dump-on-violation=FILE]\n"
               "       [--causal-out=FILE]\n"
               "       [--seeds=K] [--threads=N]\n"
               "       [--loss=P] [--dup=P] [--reorder=P] [--corrupt=P] [--fault-seed=N]\n"
               "       [--algo=brv|crv|srv|syncg] [--writers=N]\n"
               "       [--mesh=ring|small-world|scale-free|geo] [--degree=N] [--script=S]\n");
  std::exit(2);
}

using cli::take;  // the shared --name[=value] matcher (tools/cli_util.h)

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  if (a.command != "state" && a.command != "op" && a.command != "records" &&
      a.command != "sweep" && a.command != "scenario") {
    usage("command must be 'state', 'op', 'records', 'sweep' or 'scenario'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    a.seen.emplace_back(arg.substr(0, arg.find('=')));
    std::string v;
    if (take(argv[i], "--sites", &v)) {
      a.sites = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--objects", &v)) {
      a.objects = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--steps", &v)) {
      a.steps = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--update-prob", &v)) {
      a.update_prob = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--seed", &v)) {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (take(argv[i], "--topology", &v)) {
      if (v == "gossip") a.topology = wl::Topology::kRandomGossip;
      else if (v == "ring") a.topology = wl::Topology::kRing;
      else if (v == "star") a.topology = wl::Topology::kStar;
      else if (v == "clustered") a.topology = wl::Topology::kClustered;
      else usage("unknown topology");
    } else if (take(argv[i], "--mode", &v)) {
      if (v == "ideal") a.mode = vv::TransferMode::kIdeal;
      else if (v == "saw") a.mode = vv::TransferMode::kStopAndWait;
      else if (v == "pipelined") a.mode = vv::TransferMode::kPipelined;
      else usage("unknown mode");
    } else if (take(argv[i], "--latency-ms", &v)) {
      a.latency_ms = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--bandwidth", &v)) {
      a.bandwidth = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--kind", &v)) {
      if (v == "brv") a.kind = vv::VectorKind::kBrv;
      else if (v == "crv") a.kind = vv::VectorKind::kCrv;
      else if (v == "srv") a.kind = vv::VectorKind::kSrv;
      else usage("unknown kind");
    } else if (take(argv[i], "--manual", &v)) {
      a.manual = true;
    } else if (take(argv[i], "--log-limit", &v)) {
      a.log_limit = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--full-graph", &v)) {
      a.full_graph = true;
    } else if (take(argv[i], "--csv", &v)) {
      a.csv = true;
    } else if (take(argv[i], "--json", &v)) {
      a.json = true;
    } else if (take(argv[i], "--trace-out", &v)) {
      if (v.empty()) usage("--trace-out needs a file path");
      a.trace_out = v;
    } else if (take(argv[i], "--profile-out", &v)) {
      if (v.empty()) usage("--profile-out needs a file path");
      a.profile_out = v;
    } else if (take(argv[i], "--timeline-out", &v)) {
      if (v.empty()) usage("--timeline-out needs a file path");
      a.timeline_out = v;
    } else if (take(argv[i], "--sample-every", &v)) {
      a.sample_every = cli::parse_positive_u32(
          v, usage, "--sample-every must be a positive integer (sessions per sample)");
    } else if (take(argv[i], "--dump-on-violation", &v)) {
      if (v.empty()) usage("--dump-on-violation needs a file path");
      a.dump_out = v;
    } else if (take(argv[i], "--causal-out", &v)) {
      if (v.empty()) usage("--causal-out needs a file path");
      a.causal_out = v;
    } else if (take(argv[i], "--overlap", &v)) {
      a.overlap = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--key-pool", &v)) {
      a.key_pool = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--flag", &v)) {
      a.flag_policy = true;
    } else if (take(argv[i], "--loss", &v)) {
      a.loss = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--dup", &v)) {
      a.dup = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--reorder", &v)) {
      a.reorder = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--corrupt", &v)) {
      a.corrupt = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--fault-seed", &v)) {
      a.fault_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (take(argv[i], "--seeds", &v)) {
      a.sweep_seeds = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (take(argv[i], "--algo", &v)) {
      if (v == "brv") a.algo = sim::ScenarioAlgo::kBrv;
      else if (v == "crv") a.algo = sim::ScenarioAlgo::kCrv;
      else if (v == "srv") a.algo = sim::ScenarioAlgo::kSrv;
      else if (v == "syncg") a.algo = sim::ScenarioAlgo::kSyncg;
      else usage("unknown algo (brv|crv|srv|syncg)");
    } else if (take(argv[i], "--writers", &v)) {
      a.writers = cli::parse_positive_u32(v, usage, "--writers must be a positive integer");
    } else if (take(argv[i], "--mesh", &v)) {
      if (v == "ring") a.mesh = sim::MeshKind::kRing;
      else if (v == "small-world") a.mesh = sim::MeshKind::kSmallWorld;
      else if (v == "scale-free") a.mesh = sim::MeshKind::kScaleFree;
      else if (v == "geo") a.mesh = sim::MeshKind::kGeoClustered;
      else usage("unknown mesh (ring|small-world|scale-free|geo)");
    } else if (take(argv[i], "--degree", &v)) {
      a.degree = cli::parse_positive_u32(v, usage, "--degree must be a positive integer");
    } else if (take(argv[i], "--script", &v)) {
      if (v.empty()) usage("--script needs a preset name or phase list");
      a.script = v;
    } else if (take(argv[i], "--threads", &v)) {
      // Parse signed first: strtoul silently wraps "-4" into a huge worker
      // count, and a trailing-garbage value ("4x") should be an error, not 4.
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0' || n <= 0 ||
          n > std::numeric_limits<unsigned>::max()) {
        usage("--threads must be a positive integer worker count");
      }
      a.threads = static_cast<unsigned>(n);
      a.threads_set = true;
    } else {
      usage((std::string("unknown option: ") + argv[i]).c_str());
    }
  }
  if (a.sites < 2) usage("--sites must be >= 2");
  if (a.objects < 1) usage("--objects must be >= 1");
  if (a.csv && a.json) usage("--csv and --json are mutually exclusive");
  if (!a.trace_out.empty() && a.command == "op") {
    usage("--trace-out applies to vector sessions; 'op' runs have none");
  }
  if (!a.timeline_out.empty() && a.command != "state" && a.command != "sweep" &&
      a.command != "scenario") {
    usage("--timeline-out applies to 'state', 'sweep' and 'scenario' runs");
  }
  if ((!a.dump_out.empty() || !a.causal_out.empty()) && a.command != "state" &&
      a.command != "sweep") {
    usage("--dump-on-violation / --causal-out apply to 'state' and 'sweep' runs");
  }
  if (a.command == "scenario") {
    // The scenario engine has its own workload model (writer pool + phase
    // script on a mesh) and its own instruments; every trace-style or
    // fault-injection flag below belongs to the per-step systems.
    static constexpr const char* kBanned[] = {
        "--kind",         "--manual",    "--topology",          "--objects",
        "--steps",        "--update-prob", "--trace-out",       "--profile-out",
        "--causal-out",   "--dump-on-violation", "--threads",   "--seeds",
        "--log-limit",    "--full-graph", "--overlap",          "--key-pool",
        "--flag",         "--loss",      "--dup",               "--reorder",
        "--corrupt",      "--fault-seed"};
    for (const char* f : kBanned) {
      if (a.saw(f)) {
        usage((std::string("'scenario' does not accept ") + f +
               " (see scenario options in --help)")
                  .c_str());
      }
    }
    if (a.algo == sim::ScenarioAlgo::kBrv || a.algo == sim::ScenarioAlgo::kSyncg) {
      // BRV holds concurrent pairs unresolved and SYNCG ships sink ancestors
      // only — a multi-writer world would never converge (scenario.h top
      // comment); reject instead of spinning to the quiesce cap.
      if (a.saw("--writers") && a.writers > 1) {
        usage("--algo=brv and --algo=syncg require --writers=1");
      }
      a.writers = 1;
    }
  } else {
    for (const char* f : {"--algo", "--writers", "--mesh", "--degree", "--script"}) {
      if (a.saw(f)) {
        usage((std::string(f) + " applies to 'scenario' runs").c_str());
      }
    }
  }
  if (a.command == "sweep") {
    if (a.sweep_seeds < 1) usage("--seeds must be >= 1");
    // Per-run tracing/profiling would interleave across workers; the sweep
    // reports merged metrics instead.
    if (!a.trace_out.empty() || !a.profile_out.empty()) {
      usage("'sweep' does not support --trace-out / --profile-out");
    }
  }
  for (const double p : {a.loss, a.dup, a.reorder, a.corrupt}) {
    if (p < 0 || p > 1) usage("fault probabilities must be in [0, 1]");
  }
  if (a.faults_requested() && a.command == "op") {
    usage("fault injection applies to vector sessions; 'op' has no recovery path");
  }
  if (a.kind == vv::VectorKind::kBrv) a.manual = true;  // §3.1: no reconciliation
  if (a.command == "state" && a.threads_set) {
    // The batch engine serializes commit effects but runs sessions
    // wave-parallel: manual holds mutate the *sender* (breaks wave
    // read-sharing), and tracer/timeline/recorder/profiler are sequential
    // per-session-order instruments. Causal tracing is supported.
    if (a.manual) {
      usage("state --threads requires automatic resolution "
            "(drop --manual / --kind=brv)");
    }
    if (!a.trace_out.empty() || !a.timeline_out.empty() || !a.dump_out.empty() ||
        !a.profile_out.empty()) {
      usage("state --threads is incompatible with --trace-out / --timeline-out "
            "/ --dump-on-violation / --profile-out (sequential per-session "
            "instruments; --causal-out is supported)");
    }
  }
  return a;
}

void write_file(const std::string& path, const std::string& content);

// Installs the global profiler for the run when --profile-out is given and
// writes the Chrome-trace JSON on scope exit. Span durations additionally
// land in `sink` as "<name>.wall_ns" histograms, so the --json report carries
// wall-clock percentiles next to the model-bit metrics (note: this makes the
// metrics section run-dependent; without --profile-out reports stay
// deterministic).
class ProfileScope {
 public:
  ProfileScope(const std::string& path, obs::Registry* sink) : path_(path) {
    if (path_.empty()) return;
    profiler_.emplace();
    profiler_->set_sink(sink);
    prof::set_global_profiler(&*profiler_);
  }
  ~ProfileScope() {
    if (!profiler_.has_value()) return;
    prof::set_global_profiler(nullptr);
    write_file(path_, prof::profile_to_json(*profiler_));
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  std::string path_;
  std::optional<prof::Profiler> profiler_;
};

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

// A full ring means the written document silently lacks the run's earliest
// events — worth a loud stderr note next to the output path.
template <class T>
void warn_ring_drops(const char* what, const obs::Ring<T>& ring, const std::string& path) {
  if (ring.dropped() == 0) return;
  std::fprintf(stderr,
               "warning: %s ring dropped %llu of %llu events (capacity %zu); "
               "%s holds only the most recent events\n",
               what, (unsigned long long)ring.dropped(),
               (unsigned long long)ring.total_recorded(), ring.capacity(), path.c_str());
}

// Write the flight-recorder dump only when an anomaly froze it; either way
// say on stderr what happened, so scripted runs can tell "clean" from
// "violated" without parsing exit codes.
void finish_flight_dump(const obs::FlightRecorder& rec, const std::string& path) {
  if (path.empty()) return;
  if (!rec.triggered()) {
    std::fprintf(stderr, "flight recorder: no violation; %s not written\n", path.c_str());
    return;
  }
  write_file(path, obs::flight_to_json(rec));
  std::fprintf(stderr,
               "flight recorder triggered (%s, %llu trigger(s)): wrote last %zu "
               "protocol events to %s\n",
               rec.reason().c_str(), (unsigned long long)rec.trigger_count(),
               rec.dump().size(), path.c_str());
}

wl::Trace make_trace(const Args& a) {
  wl::GeneratorConfig g;
  g.n_sites = a.sites;
  g.n_objects = a.objects;
  g.steps = a.steps;
  g.update_prob = a.update_prob;
  g.topology = a.topology;
  g.seed = a.seed;
  return wl::generate(g);
}

sim::NetConfig make_net(const Args& a) {
  sim::NetConfig net;
  net.latency_s = a.latency_ms / 1000.0;
  if (a.bandwidth > 0) net.bandwidth_bits_per_s = a.bandwidth;
  net.faults.drop = a.loss;
  net.faults.duplicate = a.dup;
  net.faults.reorder = a.reorder;
  net.faults.corrupt = a.corrupt;
  net.faults.seed = a.fault_seed;
  return net;
}

int run_state(const Args& a) {
  repl::StateSystem::Config cfg;
  cfg.n_sites = a.sites;
  cfg.kind = a.kind;
  cfg.policy = a.manual ? repl::ResolutionPolicy::kManual
                        : repl::ResolutionPolicy::kAutomatic;
  cfg.mode = a.mode;
  cfg.net = make_net(a);
  cfg.cost = CostModel{.n = a.sites, .m = 1 << 16};
  std::optional<obs::Tracer> tracer;
  if (!a.trace_out.empty()) cfg.tracer = &tracer.emplace();
  obs::Timeline timeline;
  if (!a.timeline_out.empty()) {
    cfg.timeline = &timeline;
    cfg.timeline_every = a.sample_every;
  }
  obs::FlightRecorder recorder;
  if (!a.dump_out.empty()) cfg.recorder = &recorder;
  // Trace ids derive from the workload seed, so two runs of the same
  // configuration write byte-identical causal dumps.
  std::optional<obs::CausalTracer> causal;
  if (!a.causal_out.empty()) cfg.causal = &causal.emplace(a.seed);
  repl::StateSystem sys(cfg);
  ProfileScope profile(a.profile_out, &sys.metrics());
  const wl::Trace trace = make_trace(a);
  wl::RunStats stats;
  repl::StateSystem::BatchStats bstats;
  if (a.threads_set) {
    // Sharded parallel engine: replica-disjoint sessions run on the pool,
    // commit effects land in spec order, so every output below — report,
    // totals, causal dump — is byte-identical for any --threads value.
    rt::ThreadPool pool(a.threads);
    stats = wl::run_state_parallel(sys, trace, pool, /*drive_to_consistency=*/true,
                                   &bstats);
  } else {
    stats = wl::run_state(sys, trace);
  }
  sys.sample_timeline();  // flush a final sample at the end of the run
  const auto& t = sys.totals();
  if (tracer) {
    write_file(a.trace_out, obs::trace_to_json(*tracer));
    warn_ring_drops("trace", *tracer, a.trace_out);
  }
  if (!a.timeline_out.empty()) write_file(a.timeline_out, obs::timeline_to_json(timeline));
  if (causal) {
    write_file(a.causal_out, obs::causal_to_json(*causal));
    warn_ring_drops("causal", *causal, a.causal_out);
  }
  finish_flight_dump(recorder, a.dump_out);
  if (a.json) {
    std::fputs(wl::state_run_report_json(sys, trace, stats).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (a.csv) {
    std::puts("kind,sites,objects,steps,update_prob,seed,sessions,bits,bytes,"
              "elems_sent,elems_redundant,skips,conflicts,reconciliations,"
              "consistent");
    std::puts(obs::CsvRow()
                  .add(vv::to_string(a.kind))
                  .add(a.sites)
                  .add(a.objects)
                  .add(a.steps)
                  .add(a.update_prob)
                  .add(a.seed)
                  .add(t.sessions)
                  .add(t.bits)
                  .add(t.bytes)
                  .add(t.elems_sent)
                  .add(t.elems_redundant)
                  .add(t.skips)
                  .add(t.conflicts_detected)
                  .add(t.reconciliations)
                  .add(int{stats.eventually_consistent})
                  .str()
                  .c_str());
    return 0;
  }
  std::printf("state-transfer run (%s, %s resolution)\n",
              std::string(vv::to_string(a.kind)).c_str(),
              a.manual ? "manual" : "automatic");
  std::printf("  events: %llu updates, %llu syncs (%llu skipped)\n",
              (unsigned long long)stats.updates, (unsigned long long)stats.syncs,
              (unsigned long long)stats.skipped);
  std::printf("  sessions: %llu   traffic: %llu model bits (%llu wire bytes)\n",
              (unsigned long long)t.sessions, (unsigned long long)t.bits,
              (unsigned long long)t.bytes);
  std::printf("  elements: %llu sent, %llu redundant (Gamma), %llu segment skips\n",
              (unsigned long long)t.elems_sent, (unsigned long long)t.elems_redundant,
              (unsigned long long)t.skips);
  std::printf("  conflicts: %llu detected, %llu reconciled\n",
              (unsigned long long)t.conflicts_detected,
              (unsigned long long)t.reconciliations);
  std::printf("  eventually consistent: %s (%u anti-entropy rounds)\n",
              stats.eventually_consistent ? "yes" : "no", stats.anti_entropy_rounds);
  if (a.threads_set) {
    std::printf("  parallel: %llu waves (max %llu sessions/wave), olock: "
                "%llu acquisitions, %llu optimistic retries, %llu queue waits\n",
                (unsigned long long)bstats.waves,
                (unsigned long long)bstats.max_wave_items,
                (unsigned long long)bstats.olock.acquisitions,
                (unsigned long long)bstats.olock.opt_retries,
                (unsigned long long)bstats.olock.queue_waits);
  }
  return stats.eventually_consistent || a.manual ? 0 : 1;
}

int run_op(const Args& a) {
  repl::OpSystem::Config cfg;
  cfg.n_sites = a.sites;
  cfg.mode = a.mode;
  cfg.net = make_net(a);
  cfg.cost = CostModel{.n = a.sites, .m = 1 << 20};
  cfg.use_incremental = !a.full_graph;
  cfg.op_log_limit = a.log_limit;
  repl::OpSystem sys(cfg);
  ProfileScope profile(a.profile_out, &sys.metrics());
  const wl::Trace trace = make_trace(a);
  const wl::RunStats stats = wl::run_op(sys, trace);
  const auto& t = sys.totals();
  if (a.json) {
    std::fputs(wl::op_run_report_json(sys, trace, stats).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (a.csv) {
    std::puts("algo,sites,objects,steps,update_prob,seed,log_limit,sessions,bits,"
              "nodes_sent,nodes_redundant,op_bytes,fallbacks,fallback_bytes,"
              "consistent");
    std::puts(obs::CsvRow()
                  .add(a.full_graph ? "full" : "syncg")
                  .add(a.sites)
                  .add(a.objects)
                  .add(a.steps)
                  .add(a.update_prob)
                  .add(a.seed)
                  .add(a.log_limit)
                  .add(t.sessions)
                  .add(t.bits)
                  .add(t.nodes_sent)
                  .add(t.nodes_redundant)
                  .add(t.op_bytes)
                  .add(t.state_fallbacks)
                  .add(t.state_fallback_bytes)
                  .add(int{stats.eventually_consistent})
                  .str()
                  .c_str());
    return 0;
  }
  std::printf("operation-transfer run (%s%s)\n", a.full_graph ? "full graph" : "SYNCG",
              a.log_limit ? (", log limit " + std::to_string(a.log_limit)).c_str() : "");
  std::printf("  events: %llu ops, %llu syncs\n", (unsigned long long)stats.updates,
              (unsigned long long)stats.syncs);
  std::printf("  sessions: %llu   metadata: %llu model bits\n",
              (unsigned long long)t.sessions, (unsigned long long)t.bits);
  std::printf("  nodes: %llu sent, %llu redundant overlap\n",
              (unsigned long long)t.nodes_sent, (unsigned long long)t.nodes_redundant);
  std::printf("  payload: %llu op bytes; %llu state fallbacks (%llu bytes)\n",
              (unsigned long long)t.op_bytes, (unsigned long long)t.state_fallbacks,
              (unsigned long long)t.state_fallback_bytes);
  std::printf("  reconciliations: %llu\n", (unsigned long long)t.reconciliations);
  std::printf("  eventually consistent: %s\n", stats.eventually_consistent ? "yes" : "no");
  return stats.eventually_consistent ? 0 : 1;
}

int run_records(const Args& a) {
  repl::RecordSystem::Config cfg;
  cfg.n_sites = a.sites;
  cfg.kind = a.kind;
  cfg.policy = a.flag_policy ? repl::SemanticPolicy::kFlag
                             : repl::SemanticPolicy::kLastWriterWins;
  cfg.mode = a.mode;
  cfg.net = make_net(a);
  cfg.cost = CostModel{.n = a.sites, .m = 1 << 16};
  std::optional<obs::Tracer> tracer;
  if (!a.trace_out.empty()) cfg.tracer = &tracer.emplace();
  repl::RecordSystem sys(cfg);
  ProfileScope profile(a.profile_out, &sys.metrics());
  const ObjectId db{0};
  Rng rng(a.seed);
  sys.create_object(SiteId{0}, db, "genesis", "x");
  for (std::uint32_t s = 1; s < a.sites; ++s) sys.sync(SiteId{s}, SiteId{0}, db);
  std::vector<std::uint64_t> priv(a.sites, 0);
  for (std::uint32_t step = 0; step < a.steps; ++step) {
    const auto s = static_cast<std::uint32_t>(rng.below(a.sites));
    if (rng.chance(a.update_prob)) {
      std::string key = rng.chance(a.overlap)
                            ? "shared:" + std::to_string(rng.below(a.key_pool))
                            : "own:" + std::to_string(s) + ":" +
                                  std::to_string(priv[s]++ % 64);
      sys.put(SiteId{s}, db, key, "v" + std::to_string(step));
    } else {
      auto p = static_cast<std::uint32_t>(rng.below(a.sites));
      if (p == s) p = (p + 1) % a.sites;
      sys.sync(SiteId{s}, SiteId{p}, db);
    }
  }
  const auto& t = sys.totals();
  if (tracer) {
    write_file(a.trace_out, obs::trace_to_json(*tracer));
    warn_ring_drops("trace", *tracer, a.trace_out);
  }
  if (a.json) {
    wl::RecordsRunTags tags;
    tags.sites = a.sites;
    tags.steps = a.steps;
    tags.update_prob = a.update_prob;
    tags.overlap = a.overlap;
    tags.key_pool = a.key_pool;
    tags.seed = a.seed;
    std::fputs(wl::records_run_report_json(sys, tags).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (a.csv) {
    std::puts("kind,policy,sites,steps,overlap,key_pool,seed,sessions,bits,"
              "syntactic,syntactic_only,semantic,merged,flagged");
    std::puts(obs::CsvRow()
                  .add(vv::to_string(a.kind))
                  .add(a.flag_policy ? "flag" : "lww")
                  .add(a.sites)
                  .add(a.steps)
                  .add(a.overlap)
                  .add(a.key_pool)
                  .add(a.seed)
                  .add(t.sessions)
                  .add(t.bits)
                  .add(t.syntactic_conflicts)
                  .add(t.syntactic_only)
                  .add(t.semantic_conflicts)
                  .add(t.records_merged)
                  .add(t.flagged_records)
                  .str()
                  .c_str());
    return 0;
  }
  std::printf("record-store run (%s, %s resolution)\n",
              std::string(vv::to_string(a.kind)).c_str(),
              a.flag_policy ? "flag-for-repair" : "last-writer-wins");
  std::printf("  sessions: %llu   metadata: %llu model bits\n",
              (unsigned long long)t.sessions, (unsigned long long)t.bits);
  std::printf("  syntactic triggers: %llu (%llu dismissed as false alarms)\n",
              (unsigned long long)t.syntactic_conflicts,
              (unsigned long long)t.syntactic_only);
  std::printf("  true record conflicts: %llu; silent merges: %llu; flagged: %llu\n",
              (unsigned long long)t.semantic_conflicts,
              (unsigned long long)t.records_merged,
              (unsigned long long)t.flagged_records);
  return 0;
}

// Large-world gossip scenario. The phase list is parsed before the world is
// built so flash-crowd headroom is known up front — the optimistic-read
// pinning contract requires replica width to be reserved before any reader
// can observe the vector.
int run_scenario_cmd(const Args& a) {
  std::vector<wl::PhaseSpec> phases;
  std::string err;
  if (!wl::parse_scenario_script(a.script, a.sites, phases, err)) usage(err.c_str());
  const std::uint32_t flash = wl::scenario_flash_writers(phases);
  if (flash > 0 &&
      (a.algo == sim::ScenarioAlgo::kBrv || a.algo == sim::ScenarioAlgo::kSyncg)) {
    usage("flash phases add one-shot writers; brv/syncg worlds are single-writer");
  }
  sim::ScenarioWorld::Config cfg;
  cfg.algo = a.algo;
  cfg.sites = a.sites;
  cfg.writers = a.writers;
  cfg.mesh = a.mesh;
  cfg.degree = a.degree;
  cfg.seed = a.seed;
  cfg.mode = a.mode;
  cfg.net = make_net(a);
  cfg.cost = CostModel{.n = a.sites, .m = 1 << 16};
  cfg.extra_writers = flash;
  sim::ScenarioWorld world(cfg);
  obs::Timeline timeline;
  const wl::ScenarioStats stats = wl::run_scenario(
      world, phases, a.timeline_out.empty() ? nullptr : &timeline, a.sample_every);
  if (!a.timeline_out.empty()) write_file(a.timeline_out, obs::timeline_to_json(timeline));
  const auto& t = stats.totals;
  if (a.json) {
    std::fputs(wl::scenario_run_report_json(world, a.script, stats).c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  if (a.csv) {
    std::puts("algo,sites,writers,mesh,degree,seed,rounds,updates,compares,sessions,"
              "bits,wire_bytes,converged,convergence_rounds,arena_live_bytes,"
              "replica_bytes");
    std::puts(obs::CsvRow()
                  .add(sim::to_string(a.algo))
                  .add(a.sites)
                  .add(a.writers)
                  .add(sim::to_string(a.mesh))
                  .add(a.degree)
                  .add(a.seed)
                  .add(t.rounds)
                  .add(t.updates)
                  .add(t.compares)
                  .add(t.sessions)
                  .add(t.bits)
                  .add(t.wire_bytes)
                  .add(int{stats.converged})
                  .add(stats.convergence_rounds)
                  .add(stats.arena.live_bytes)
                  .add(stats.replica_bytes)
                  .str()
                  .c_str());
    return 0;
  }
  std::printf("scenario run (%s, %s mesh, %u sites, %u writers)\n",
              std::string(sim::to_string(a.algo)).c_str(),
              std::string(sim::to_string(a.mesh)).c_str(), a.sites, a.writers);
  std::printf("  script: %s\n", a.script.c_str());
  std::printf("  rounds: %llu   updates: %llu   converged: %s",
              (unsigned long long)t.rounds, (unsigned long long)t.updates,
              stats.converged ? "yes" : "NO");
  if (stats.converged && stats.convergence_rounds > 0) {
    std::printf(" (round %llu)", (unsigned long long)stats.convergence_rounds);
  }
  if (stats.quiesce_truncated) std::printf(" [quiesce cap hit]");
  std::printf("\n");
  std::printf("  exchanges: %llu compares, %llu sync sessions, %llu msgs\n",
              (unsigned long long)t.compares, (unsigned long long)t.sessions,
              (unsigned long long)t.msgs);
  std::printf("  traffic: %llu model bits (%llu wire bytes)\n",
              (unsigned long long)t.bits, (unsigned long long)t.wire_bytes);
  std::printf("  applied: %llu elements, %llu graph nodes; %llu reconciliations, "
              "%llu conflicts held\n",
              (unsigned long long)t.elems_applied, (unsigned long long)t.nodes_applied,
              (unsigned long long)t.reconciliations,
              (unsigned long long)t.conflicts_held);
  std::printf("  memory: arena %llu live / %llu reserved bytes (%llu slabs); "
              "replicas %llu bytes, mesh %llu bytes\n",
              (unsigned long long)stats.arena.live_bytes,
              (unsigned long long)stats.arena.reserved_bytes,
              (unsigned long long)stats.arena.slabs,
              (unsigned long long)stats.replica_bytes,
              (unsigned long long)stats.mesh_bytes);
  return stats.converged ? 0 : 1;
}

// K independent state-transfer runs with per-task split seeds on a thread
// pool. Every run owns its system, trace, and event loop; per-worker metric
// shards are merged after the join, so the row table AND the merged registry
// are byte-identical for any --threads value.
int run_sweep(const Args& a) {
  struct Row {
    std::uint64_t seed{0};
    std::uint64_t sessions{0};
    std::uint64_t bits{0};
    std::uint64_t conflicts{0};
    std::uint64_t reconciliations{0};
    std::uint64_t retries{0};
    std::uint64_t failures{0};
    std::uint64_t divergence{0};
    bool consistent{false};
    std::string dump;    // flight dump JSON when this run tripped the recorder
    std::string causal;  // this run's optrep.causal/v1 fragment (--causal-out)
  };
  rt::ThreadPool pool(a.threads);
  rt::ObsShards shards(pool.threads());
  std::vector<std::uint32_t> runs(a.sweep_seeds);
  for (std::uint32_t k = 0; k < a.sweep_seeds; ++k) runs[k] = k;
  const auto rows = rt::parallel_sweep(
      pool, runs, shards,
      [&a](std::uint32_t k, std::size_t, rt::ObsShards::Shard& shard) {
        Args run = a;
        run.seed = rt::task_seed(a.seed, k);
        // Independent fault streams per run, like the workload seeds.
        run.fault_seed = rt::task_seed(a.fault_seed, k);
        repl::StateSystem::Config cfg;
        cfg.n_sites = run.sites;
        cfg.kind = run.kind;
        cfg.policy = run.manual ? repl::ResolutionPolicy::kManual
                                : repl::ResolutionPolicy::kAutomatic;
        cfg.mode = run.mode;
        cfg.net = make_net(run);
        cfg.cost = CostModel{.n = run.sites, .m = 1 << 16};
        obs::FlightRecorder rec;
        if (!a.dump_out.empty()) cfg.recorder = &rec;
        // Per-run tracer seeded with the run's split seed: trace ids depend
        // only on (seed, k), never on worker identity or scheduling. The
        // worker serializes its own fragment; the document is assembled in
        // config order after the join.
        std::optional<obs::CausalTracer> ct;
        if (!a.causal_out.empty()) cfg.causal = &ct.emplace(rt::task_seed(a.seed, k));
        repl::StateSystem sys(cfg);
        const wl::RunStats stats = wl::run_state(sys, make_trace(run));
        shard.registry.merge_from(sys.metrics());
        const auto& t = sys.totals();
        Row row{run.seed,
                t.sessions,
                t.bits,
                t.conflicts_detected,
                t.reconciliations,
                t.retries,
                t.sync_failures,
                sys.divergence(),
                stats.eventually_consistent,
                {},
                {}};
        if (rec.triggered()) row.dump = obs::flight_to_json(rec);
        if (ct) row.causal = obs::causal_run_fragment(*ct, k);
        // Live mid-sweep progress: single writer per shard, so read-add-
        // publish is race-free; readers get a consistent snapshot any time.
        const auto prev = shard.progress.read();
        shard.progress.publish(prev[0] + 1, prev[1] + t.sessions, prev[2] + t.bits);
        return row;
      });
  obs::Registry merged;
  shards.merge_into(&merged, nullptr);

  // The sweep timeline is assembled from the config-order row table after
  // the join — one sample per run on the "run" axis — so the document is
  // byte-identical for any --threads value by construction.
  if (!a.timeline_out.empty()) {
    obs::Timeline::Config tc;
    if (rows.size() > tc.max_samples) tc.max_samples = rows.size();
    obs::Timeline tl(tc);
    tl.set_axis("run");
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Row& r = rows[k];
      tl.begin_sample(static_cast<double>(k));
      tl.record("repl.divergence", static_cast<std::int64_t>(r.divergence));
      tl.record("state.bits", static_cast<std::int64_t>(r.bits));
      tl.record("state.conflicts_detected", static_cast<std::int64_t>(r.conflicts));
      tl.record("state.reconciliations", static_cast<std::int64_t>(r.reconciliations));
      tl.record("state.sessions", static_cast<std::int64_t>(r.sessions));
      if (a.faults_requested()) {
        tl.record("state.retries", static_cast<std::int64_t>(r.retries));
        tl.record("state.sync_failures", static_cast<std::int64_t>(r.failures));
      }
    }
    write_file(a.timeline_out, obs::timeline_to_json(tl));
  }
  // Causal sweep document: per-run fragments in config order, so the bytes
  // are thread-count-independent by construction.
  if (!a.causal_out.empty()) {
    std::vector<std::string> fragments;
    fragments.reserve(rows.size());
    for (const Row& r : rows) fragments.push_back(r.causal);
    write_file(a.causal_out, obs::causal_sweep_json(fragments));
  }
  // Dump-on-violation: the first triggered run in config order wins, which
  // keeps the written dump deterministic across thread counts too.
  if (!a.dump_out.empty()) {
    std::size_t hit = rows.size();
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (!rows[k].dump.empty()) {
        hit = k;
        break;
      }
    }
    if (hit < rows.size()) {
      write_file(a.dump_out, rows[hit].dump);
      std::fprintf(stderr, "flight recorder triggered in run %zu: wrote %s\n", hit,
                   a.dump_out.c_str());
    } else {
      std::fprintf(stderr, "flight recorder: no violation across %zu runs; %s not written\n",
                   rows.size(), a.dump_out.c_str());
    }
  }

  bool all_consistent = true;
  for (const Row& r : rows) all_consistent = all_consistent && r.consistent;
  if (a.json) {
    std::fputs(obs::metrics_to_json(merged).c_str(), stdout);
    std::fputc('\n', stdout);
    return all_consistent || a.manual ? 0 : 1;
  }
  if (a.csv) {
    std::puts("run,seed,sessions,bits,conflicts,reconciliations,consistent");
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const Row& r = rows[k];
      std::puts(obs::CsvRow()
                    .add(static_cast<std::uint64_t>(k))
                    .add(r.seed)
                    .add(r.sessions)
                    .add(r.bits)
                    .add(r.conflicts)
                    .add(r.reconciliations)
                    .add(int{r.consistent})
                    .str()
                    .c_str());
    }
    return all_consistent || a.manual ? 0 : 1;
  }
  std::printf("sweep: %u runs of 'state' (%s) on %u worker(s)\n", a.sweep_seeds,
              std::string(vv::to_string(a.kind)).c_str(), pool.threads());
  std::printf("%-5s %-22s %-10s %-12s %-10s %-8s\n", "run", "seed", "sessions",
              "bits", "conflicts", "ok");
  std::uint64_t sessions = 0, bits = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& r = rows[k];
    std::printf("%-5zu %-22llu %-10llu %-12llu %-10llu %-8s\n", k,
                (unsigned long long)r.seed, (unsigned long long)r.sessions,
                (unsigned long long)r.bits, (unsigned long long)r.conflicts,
                r.consistent ? "yes" : "NO");
    sessions += r.sessions;
    bits += r.bits;
  }
  std::printf("total: %llu sessions, %llu model bits; merged metrics: %zu counters\n",
              (unsigned long long)sessions, (unsigned long long)bits,
              merged.counters().size());
  return all_consistent || a.manual ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.command == "state") return run_state(a);
  if (a.command == "op") return run_op(a);
  if (a.command == "sweep") return run_sweep(a);
  if (a.command == "scenario") return run_scenario_cmd(a);
  return run_records(a);
}
