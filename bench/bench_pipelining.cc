// E-pipe — §3.1's network-pipelining claims, measured on the simulator:
//   (1) pipelining reduces running time by (k−1)·rtt for k items sent;
//   (2) it suppresses (k−1) reply messages;
//   (3) it overshoots by at most β = bandwidth·rtt bytes after the receiver
//       emits its stop signal.
#include "bench/bench_util.h"
#include "workload/trace.h"

using namespace optrep;
using namespace optrep::bench;

namespace {

struct PipeSample {
  double t_pipe, t_saw;      // simulated seconds
  std::uint64_t msgs_rev_pipe, msgs_rev_saw;
  std::uint64_t overshoot_elems;
};

PipeSample run_case(std::uint32_t k, double rtt_s, double bw_bits) {
  // Receiver misses exactly k elements of a 2k-site vector.
  const std::uint32_t n = 2 * k;
  const vv::RotatingVector base = linear_history(n - k);
  vv::RotatingVector b = base;
  for (std::uint32_t i = 0; i < k; ++i) b.record_update(SiteId{n - k + i});

  vv::SyncOptions opt = ideal_options(vv::VectorKind::kSrv, n);
  opt.net = {.latency_s = rtt_s / 2, .bandwidth_bits_per_s = bw_bits};
  opt.known_relation = vv::Ordering::kBefore;

  PipeSample s{};
  {
    vv::RotatingVector a = base;
    opt.mode = vv::TransferMode::kPipelined;
    sim::EventLoop loop;
    const auto rep = vv::sync_rotating(loop, a, b, opt);
    s.t_pipe = rep.duration;
    s.msgs_rev_pipe = rep.rev.messages;
    s.overshoot_elems = rep.elems_after_halt;
  }
  {
    vv::RotatingVector a = base;
    opt.mode = vv::TransferMode::kStopAndWait;
    sim::EventLoop loop;
    const auto rep = vv::sync_rotating(loop, a, b, opt);
    s.t_saw = rep.duration;
    s.msgs_rev_saw = rep.rev.messages;
  }
  return s;
}

// Overshoot: receiver already dominates, sender streams a long vector; count
// elements transmitted after the receiver's HALT left.
std::uint64_t run_overshoot(double rtt_s, double bw_bits, const CostModel& cm,
                            std::uint64_t* beta_elems) {
  const std::uint32_t n = 2048;
  vv::RotatingVector b = linear_history(n);
  vv::RotatingVector a = b;
  a.record_update(SiteId{0});

  vv::SyncOptions opt = ideal_options(vv::VectorKind::kSrv, n);
  opt.net = {.latency_s = rtt_s / 2, .bandwidth_bits_per_s = bw_bits};
  opt.known_relation = vv::Ordering::kAfter;
  opt.mode = vv::TransferMode::kPipelined;
  sim::EventLoop loop;
  const auto rep = vv::sync_rotating(loop, a, b, opt);
  *beta_elems = static_cast<std::uint64_t>(bw_bits * rtt_s / cm.elem_bits(2)) + 2;
  return rep.elems_after_halt;
}

}  // namespace

int main(int argc, char** argv) {
  init_bench(&argc, argv);
  std::printf("==== bench_pipelining: §3.1 network pipelining ====\n\n");
  std::printf("-- running time: pipelined vs stop-and-wait (bandwidth 1 Mbit/s) --\n");
  std::printf("%-6s %-9s | %-12s %-12s %-14s %-14s | %-10s %-10s\n", "k", "rtt(ms)",
              "t_pipe(s)", "t_saw(s)", "saved(s)", "(k-1)*rtt", "replies_p", "replies_s");
  print_rule(100);
  const std::vector<std::uint32_t> ks =
      smoke() ? std::vector<std::uint32_t>{8} : std::vector<std::uint32_t>{8, 32, 128};
  const std::vector<double> rtts =
      smoke() ? std::vector<double>{10.0} : std::vector<double>{10.0, 50.0, 200.0};
  std::vector<std::pair<std::uint32_t, double>> pipe_configs;
  for (std::uint32_t k : ks) {
    for (double rtt_ms : rtts) pipe_configs.emplace_back(k, rtt_ms);
  }
  const auto pipe_rows =
      sweep(pipe_configs, [](const std::pair<std::uint32_t, double>& c, std::size_t) {
        return run_case(c.first, c.second / 1000.0, 1e6);
      });
  for (std::size_t i = 0; i < pipe_rows.size(); ++i) {
    const auto [k, rtt_ms] = pipe_configs[i];
    const PipeSample& s = pipe_rows[i];
    std::printf("%-6u %-9.0f | %-12.4f %-12.4f %-14.4f %-14.4f | %-10llu %-10llu\n", k,
                rtt_ms, s.t_pipe, s.t_saw, s.t_saw - s.t_pipe,
                (k - 1) * rtt_ms / 1000.0, (unsigned long long)s.msgs_rev_pipe,
                (unsigned long long)s.msgs_rev_saw);
  }
  std::printf("\n(paper: pipelining saves (k-1)*rtt and makes (k-1) replies implicit —\n"
              " the 'saved' column should track '(k-1)*rtt', and the pipelined reply\n"
              " count collapses to O(1).)\n");

  std::printf("\n-- overshoot after HALT vs the beta = bandwidth*rtt budget --\n");
  std::printf("%-9s %-14s | %-18s %-18s %-8s\n", "rtt(ms)", "bw(bit/s)",
              "overshoot elems", "beta budget elems", "within");
  print_rule(72);
  const CostModel cm{.n = 2048, .m = 1 << 16};
  const std::vector<double> over_rtts =
      smoke() ? std::vector<double>{10.0} : std::vector<double>{10.0, 100.0};
  const std::vector<double> bws =
      smoke() ? std::vector<double>{1e6} : std::vector<double>{1e5, 1e6, 1e7};
  std::vector<std::pair<double, double>> over_configs;
  for (double rtt_ms : over_rtts) {
    for (double bw : bws) over_configs.emplace_back(rtt_ms, bw);
  }
  struct OverRow {
    std::uint64_t got{0}, beta{0};
  };
  const auto over_rows =
      sweep(over_configs, [&cm](const std::pair<double, double>& c, std::size_t) {
        OverRow row;
        row.got = run_overshoot(c.first / 1000.0, c.second, cm, &row.beta);
        return row;
      });
  for (std::size_t i = 0; i < over_rows.size(); ++i) {
    const auto [rtt_ms, bw] = over_configs[i];
    std::printf("%-9.0f %-14.0f | %-18llu %-18llu %-8s\n", rtt_ms, bw,
                (unsigned long long)over_rows[i].got, (unsigned long long)over_rows[i].beta,
                over_rows[i].got <= over_rows[i].beta ? "yes" : "NO");
  }
  std::printf("\n-- whole-system effect: one trace, total simulated network time --\n");
  std::printf("(12 sites, 800 events, SRV, 20 ms latency, 1 Mbit/s)\n");
  std::printf("%-14s %-20s %-14s\n", "mode", "sim time (s)", "traffic bits");
  print_rule(50);
  for (auto [mode, label] : std::vector<std::pair<vv::TransferMode, const char*>>{
           {vv::TransferMode::kPipelined, "pipelined"},
           {vv::TransferMode::kStopAndWait, "stop-and-wait"}}) {
    repl::StateSystem::Config cfg;
    cfg.n_sites = 12;
    cfg.kind = vv::VectorKind::kSrv;
    cfg.policy = repl::ResolutionPolicy::kAutomatic;
    cfg.mode = mode;
    cfg.net = {.latency_s = 0.02, .bandwidth_bits_per_s = 1e6};
    cfg.cost = CostModel{.n = 12, .m = 1 << 16};
    cfg.check_oracle = false;
    repl::StateSystem sys(cfg);
    wl::GeneratorConfig g;
    g.n_sites = 12;
    g.steps = smoke() ? 150 : 800;
    g.update_prob = 0.5;
    g.seed = 5;
    wl::run_state(sys, wl::generate(g), /*drive_to_consistency=*/false);
    std::printf("%-14s %-20.3f %-14llu\n", label, sys.now(),
                (unsigned long long)sys.totals().bits);
  }
  std::printf("\n(both effects are measured in simulated network time; wall-clock\n"
              " microbenchmarks of the protocol engines live in bench_table2.)\n");
  (void)argc;
  (void)argv;
  return 0;
}
