// T2-bounds + E-lb — reproduces Table 2 ("Complexities of vector
// synchronization") empirically.
//
// Part 1 measures worst-case communication per algorithm and checks it
// against the paper's printed upper bounds:
//     BRV ≤ n·log(2mn)+2    CRV ≤ n·log(4mn)+2    SRV ≤ n·log(8mn)+n·log(2n)+1
// Part 2 measures the scaling behaviour (O(|Δ|), O(|Δ|+|Γ|), O(|Δ|+γ)) on
// randomized reconciliation workloads and reports each algorithm's measured
// bits as a multiple of the §5 lower bound Ω(|Δ|+γ) — SRV's ratio must stay
// O(1) (optimality), CRV's grows with the conflict rate.
//
// Part 3 times the synchronizations (google-benchmark) to back the
// time-complexity column.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

using namespace optrep;
using namespace optrep::bench;

namespace {

void part1_upper_bounds() {
  std::printf("\n== Table 2, communication upper bounds (worst case: receiver empty) ==\n");
  std::printf("%-6s %-8s %-22s %-22s %-8s\n", "n", "algo", "measured bits", "paper bound bits",
              "within");
  print_rule(70);
  BenchReporter reporter("table2_bounds");
  struct Config {
    std::uint32_t n;
    vv::VectorKind kind;
  };
  std::vector<Config> configs;
  const std::vector<std::uint32_t> ns =
      smoke() ? std::vector<std::uint32_t>{8, 64}
              : std::vector<std::uint32_t>{8, 64, 256, 1024};
  for (std::uint32_t n : ns) {
    for (auto kind : {vv::VectorKind::kBrv, vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
      configs.push_back({n, kind});
    }
  }
  struct Row {
    std::uint64_t measured{0};
    std::uint64_t bound{0};
    std::string json;
  };
  const auto rows = sweep(configs, [](const Config& c, std::size_t) {
    const CostModel cm{.n = c.n, .m = 1 << 16};
    const vv::RotatingVector full = linear_history(c.n);
    vv::RotatingVector empty;
    auto opt = ideal_options(c.kind, c.n);
    opt.known_relation = vv::Ordering::kBefore;
    sim::EventLoop loop;
    const auto rep = vv::sync_rotating(loop, empty, full, opt);
    Row row;
    row.measured = rep.total_bits();
    row.bound = vv::table2_upper_bound_bits(cm, c.kind);
    obs::JsonWriter w;
    w.begin_object();
    w.field("n", c.n);
    w.field("algo", vv::to_string(c.kind));
    w.field("measured_bits", row.measured);
    w.field("bound_bits", row.bound);
    w.field("within_bound", row.measured <= row.bound);
    w.end_object();
    row.json = w.take();
    return row;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-6u %-8s %-22llu %-22llu %-8s\n", configs[i].n,
                std::string(vv::to_string(configs[i].kind)).c_str(),
                (unsigned long long)rows[i].measured, (unsigned long long)rows[i].bound,
                rows[i].measured <= rows[i].bound ? "yes" : "NO");
    reporter.add_row(rows[i].json);
  }
  reporter.flush();
}

void part2_scaling_and_lower_bound() {
  std::printf("\n== Scaling: measured traffic vs the Ω(|Δ|+γ) lower bound (§5) ==\n");
  std::printf("(random fleets, 64 sites; ratio = measured bits / [(|Δ|+γ+1)·elem_bits]; \n"
              " avg over sync sessions with data flow)\n\n");
  std::printf("%-14s %-10s %-12s %-12s %-12s %-10s\n", "update prob", "algo",
              "bits/sess", "Δ/sess", "Γ/sess", "LB ratio");
  print_rule(74);
  const std::vector<double> probs =
      smoke() ? std::vector<double>{0.6} : std::vector<double>{0.3, 0.6, 0.9};
  const std::uint32_t fleet_sites = smoke() ? 16 : 64;
  const std::uint32_t evolve_steps = smoke() ? 150 : 2000;
  const int samples = smoke() ? 100 : 1500;
  struct Config {
    double p_update;
    vv::VectorKind kind;
  };
  std::vector<Config> configs;
  for (double p_update : probs) {
    for (auto kind : {vv::VectorKind::kCrv, vv::VectorKind::kSrv}) {
      configs.push_back({p_update, kind});
    }
  }
  struct Row {
    std::uint64_t sessions{0};
    double bits_per{0}, delta_per{0}, gamma_per{0}, ratio{0};
  };
  const auto rows = sweep(configs, [&](const Config& c, std::size_t) {
    // Each sweep point owns its fleet and RNG (fixed seed), so points are
    // independent and the row is the same for any thread count.
    VectorFleet fleet(fleet_sites, c.kind, /*seed=*/1234);
    fleet.evolve(evolve_steps, c.p_update);
    // Sample phase: measure a further 1500 sync sessions.
    const CostModel cm{.n = fleet_sites, .m = 1 << 16};
    const std::uint64_t elem_bits = cm.elem_bits(c.kind == vv::VectorKind::kCrv ? 1 : 2);
    std::uint64_t sessions = 0, bits = 0, delta = 0, gamma_red = 0;
    double ratio_sum = 0;
    for (int i = 0; i < samples; ++i) {
      const auto a = static_cast<std::uint32_t>(fleet.rng().below(fleet.size()));
      auto b = static_cast<std::uint32_t>(fleet.rng().below(fleet.size()));
      if (b == a) b = (b + 1) % fleet.size();
      if (fleet.rng().chance(c.p_update)) fleet.update(a);
      const auto rep = fleet.sync(a, b);
      if (rep.initial_relation == vv::Ordering::kEqual ||
          rep.initial_relation == vv::Ordering::kAfter) {
        continue;
      }
      ++sessions;
      bits += rep.total_bits();
      delta += rep.elems_applied;
      gamma_red += rep.elems_redundant;
      const double lb =
          static_cast<double>((rep.elems_applied + rep.segments_skipped + 1) * elem_bits);
      ratio_sum += static_cast<double>(rep.total_bits()) / lb;
    }
    Row row;
    row.sessions = sessions;
    if (sessions > 0) {
      row.bits_per = (double)bits / (double)sessions;
      row.delta_per = (double)delta / (double)sessions;
      row.gamma_per = (double)gamma_red / (double)sessions;
      row.ratio = ratio_sum / (double)sessions;
    }
    return row;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].sessions == 0) continue;
    std::printf("%-14.1f %-10s %-12.1f %-12.2f %-12.2f %-10.2f\n", configs[i].p_update,
                std::string(vv::to_string(configs[i].kind)).c_str(), rows[i].bits_per,
                rows[i].delta_per, rows[i].gamma_per, rows[i].ratio);
  }
  std::printf("\n(expected shape: SRV's LB ratio stays flat as conflicts rise; CRV's\n"
              " Γ column — and with it its ratio — grows. See EXPERIMENTS.md.)\n");
}

// Part 3: time per synchronization, scaling with |Δ| at fixed n — the
// O(|Δ|) time column of Table 2.
void BM_SyncTime(benchmark::State& state) {
  const auto kind = static_cast<vv::VectorKind>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const std::uint32_t n = 1024;
  vv::RotatingVector base = linear_history(n - delta);
  vv::RotatingVector b = base;
  for (std::uint32_t i = 0; i < delta; ++i) b.record_update(SiteId{n - delta + i});
  auto opt = ideal_options(kind, n);
  opt.known_relation = vv::Ordering::kBefore;
  for (auto _ : state) {
    state.PauseTiming();
    vv::RotatingVector a = base;  // receiver misses exactly Δ elements
    state.ResumeTiming();
    sim::EventLoop loop;
    auto rep = vv::sync_rotating(loop, a, b, opt);
    benchmark::DoNotOptimize(rep.total_bits());
  }
  state.counters["delta"] = delta;
}

BENCHMARK(BM_SyncTime)
    ->ArgsProduct({{static_cast<long>(vv::VectorKind::kBrv),
                    static_cast<long>(vv::VectorKind::kCrv),
                    static_cast<long>(vv::VectorKind::kSrv)},
                   {1, 8, 64, 512}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  init_bench(&argc, argv);
  std::printf("==== bench_table2: Table 2 reproduction (threads=%u) ====\n", threads());
  part1_upper_bounds();
  part2_scaling_and_lower_bound();
  std::printf("\n== Time per synchronization vs |Delta| (n=1024 fixed) ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
