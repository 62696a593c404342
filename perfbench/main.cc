// perfbench: the optrep benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Runs one workload (serve_read or gossip) in this process, checks its
// outputs, and prints two JSON lines on stdout: a full report (host and build fingerprint, checks, every figure), then the
// result line {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the result carries the end-to-end metrics, measured with no profiler
// installed. With --trace 1 the workload runs a second time with a
// prof::Profiler installed, and the result carries the per-layer metrics;
// the retained spans are written to --trace-dir when the run ends. Exit 0
// when every check passed, 1 when one failed, 2 on a usage error.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/export.h"
#include "obs/prof.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists the same names, units and order.
constexpr MetricDef kEndToEnd[] = {
    {"sessions_per_s", "1/s"},        {"exchanges_per_s", "1/s"},
    {"latency_p50_us", "us"},         {"latency_p90_us", "us"},
    {"wire_bytes_per_session", "bytes"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.connect_us", "us"},
    {"net.session_us.compare", "us"},
    {"net.session_us.pull", "us"},
    {"net.session_us.push", "us"},
    {"net.session_p99_us", "us"},
    {"net.records_per_session", "count"},
    {"net.parked", "count"},
    {"net.backpressure_pauses", "count"},
    {"net.aborted", "count"},
    {"net.decode_errors", "count"},
    {"net.cpu_busy_frac", "ratio"},
    {"store.snapshot_ns", "ns"},
    {"store.commit_ns", "ns"},
    {"store.snapshot_retry_ratio", "ratio"},
    {"store.snapshot_fallbacks", "count"},
    {"store.write_park_ratio", "ratio"},
    {"rt.olock.opt_retries_per_acq", "ratio"},
    {"rt.olock.queue_waits_per_acq", "ratio"},
    {"sim.round_us.p50", "us"},
    {"sim.round_us.p99", "us"},
    {"sim.round_self_us", "us"},
    {"sim.dispatch_self_us", "us"},
    {"sim.exchanges_per_round", "count"},
    {"sim.session_yield", "ratio"},
    {"sim.msgs_per_session", "count"},
    {"sim.convergence_rounds", "count"},
    {"arena.live_bytes", "bytes"},
    {"arena.reserved_bytes", "bytes"},
    {"vv.sync_self_us", "us"},
    {"vv.elems_per_session", "count"},
    {"vv.model_bits_per_session", "bits"},
    {"vv.wire_bits_per_session", "bits"},
    {"graph.round_self_us", "us"},
    {"graph.nodes_per_session", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_coverage", "ratio"},
    {"obs.latency_samples", "count"},
};

constexpr std::string_view kWorkloads[] = {"serve_read", "gossip"};

const char* kUsage =
    "usage: perfbench --workload serve_read|gossip\n"
    "                 --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";

// ---- host and build fingerprint ---------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

// ---- arguments ---------------------------------------------------------------

bool parse_args(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view val = argv[++i];
    const auto parse_u64 = [&](std::uint64_t* out) {
      const auto [p, ec] = std::from_chars(val.data(), val.data() + val.size(), *out);
      return ec == std::errc{} && p == val.data() + val.size();
    };
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt->workload = std::string(val);
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(&opt->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(&n) || n == 0 || n > 600) return false;
      opt->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(&n) || n > 1) return false;
      opt->trace = n == 1;
      have_trace = true;
    } else if (flag == "--trace-dir") {
      opt->trace_dir = std::string(val);
    } else {
      return false;
    }
  }
  bool known = false;
  for (const auto w : kWorkloads) known = known || w == opt->workload;
  return have_workload && have_seed && have_seconds && have_trace && known;
}

// ---- output -------------------------------------------------------------------

void write_metric_set(optrep::obs::JsonWriter& w, const MetricDef* defs, std::size_t n,
                      const std::map<std::string, double>& values) {
  w.begin_object();
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    w.key(defs[i].name).begin_object();
    w.field("value", it == values.end() ? 0.0 : it->second);
    w.field("unit", defs[i].unit);
    w.end_object();
  }
  w.end_object();
}

void write_strings(optrep::obs::JsonWriter& w, const std::vector<std::string>& v) {
  w.begin_array();
  for (const auto& s : v) w.value(s);
  w.end_array();
}

}  // namespace

void write_spans(const Options& opt, const std::string& name, const optrep::prof::Profiler& spans,
                 Result& r) {
  if (opt.trace_dir.empty()) return;
  // The newest 2^16 spans: a Perfetto-loadable window, not the whole run.
  optrep::prof::Profiler keep;
  keep.absorb(spans);
  const std::string path = opt.trace_dir + "/" + name + ".profile.json";
  std::ofstream out(path);
  out << optrep::prof::profile_to_json(keep) << '\n';
  if (!out) r.warnings.push_back("could not write spans to " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const unsigned nproc = std::thread::hardware_concurrency();
  std::vector<std::string> build_warnings;
  if (build_type == "Debug" || !kOptimized) {
    build_warnings.push_back("unoptimized build (" + build_type + "): timings are not comparable");
  }
  if (std::string_view(sanitizer()) != "none") {
    build_warnings.push_back(std::string("sanitizer build (") + sanitizer() +
                             "): timings are not comparable");
  }
  for (const auto& w : build_warnings) {
    std::fprintf(stderr, "\n!!!!!!!! WARNING: %s !!!!!!!!\n\n", w.c_str());
  }

  Result r;
  try {
    r = opt.workload.rfind("serve_", 0) == 0 ? run_serve(opt) : run_gossip(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  r.warnings.insert(r.warnings.begin(), build_warnings.begin(), build_warnings.end());
  for (const MetricDef& m : kEndToEnd) {
    r.check(r.end_to_end.count(m.name) == 1 && r.end_to_end[m.name] > 0,
            std::string("end-to-end metric not measured: ") + m.name);
  }
  const bool correct = r.failures.empty();

  optrep::obs::JsonWriter rep;
  rep.begin_object();
  rep.field("schema", "optrep.perfbench/v1");
  rep.field("workload", opt.workload);
  rep.field("seed", opt.seed);
  rep.field("seconds", opt.seconds);
  rep.field("trace", opt.trace);
  rep.key("fingerprint").begin_object();
  rep.field("cpu_model", cpu_model());
  rep.field("nproc", std::uint64_t{nproc});
  rep.field("compiler", compiler());
  rep.field("build_type", build_type);
  rep.field("optimized", kOptimized);
  rep.field("sanitizer", sanitizer());
  rep.end_object();
  rep.field("correct", correct);
  rep.key("failures");
  write_strings(rep, r.failures);
  rep.key("warnings");
  write_strings(rep, r.warnings);
  rep.key("end_to_end");
  write_metric_set(rep, kEndToEnd, std::size(kEndToEnd), r.end_to_end);
  if (opt.trace) {
    rep.key("per_layer");
    write_metric_set(rep, kPerLayer, std::size(kPerLayer), r.per_layer);
  }
  rep.key("info").begin_object();
  for (const auto& [k, v] : r.info) rep.field(k, v);
  rep.end_object();
  rep.end_object();

  optrep::obs::JsonWriter res;
  res.begin_object();
  res.field("correct", correct);
  res.field("attempted", r.attempted);
  res.field("failed", r.failed);
  res.key("metrics");
  if (opt.trace) {
    write_metric_set(res, kPerLayer, std::size(kPerLayer), r.per_layer);
  } else {
    write_metric_set(res, kEndToEnd, std::size(kEndToEnd), r.end_to_end);
  }
  res.end_object();

  for (const auto& f : r.failures) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  for (const auto& w : r.warnings) std::fprintf(stderr, "perfbench: warning: %s\n", w.c_str());
  std::printf("%s\n%s\n", rep.take().c_str(), res.take().c_str());
  return correct ? 0 : 1;
}
