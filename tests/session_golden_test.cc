// Golden-transcript regression for the session layer.
//
// tests/data/golden_sessions.txt was captured from the pre-refactor
// sessions (the monolithic actor implementation, before the sans-I/O
// protocol cores were split out of session.cc). This test regenerates the
// same seeded grid — every kind × transfer mode × frame budget, plus the
// traditional and Singhal–Kshemkalyani baselines and COMPARE sessions —
// and requires every SyncReport field and final vector digest to be
// bit-identical. Any drift in traffic accounting, element counts, timing,
// or the resulting vectors is a protocol change, not a refactor.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "vv/compare.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

struct VecPair {
  RotatingVector a;
  RotatingVector b;
};

VecPair make_pair_(Rng& rng, std::uint32_t n_sites, std::uint32_t shared,
                   std::uint32_t extra, bool concurrent) {
  VecPair p;
  for (std::uint32_t i = 0; i < shared; ++i)
    p.a.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))});
  p.b = p.a;
  for (std::uint32_t i = 0; i < extra; ++i)
    p.b.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))});
  if (concurrent) {
    for (std::uint32_t i = 0; i < extra / 2 + 1; ++i)
      p.a.record_update(SiteId{static_cast<std::uint32_t>(rng.range(0, n_sites - 1))});
  }
  return p;
}

std::string report_line(const char* tag, const SyncReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s %d %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                "%llu %llu %llu %llu %.17g %.17g",
                tag, static_cast<int>(r.initial_relation),
                (unsigned long long)r.fwd.model_bits, (unsigned long long)r.rev.model_bits,
                (unsigned long long)r.fwd.wire_bytes, (unsigned long long)r.rev.wire_bytes,
                (unsigned long long)r.fwd.messages, (unsigned long long)r.rev.messages,
                (unsigned long long)r.fwd.frames, (unsigned long long)r.rev.frames,
                (unsigned long long)r.fwd.framed_wire_bytes,
                (unsigned long long)r.rev.framed_wire_bytes,
                (unsigned long long)r.elems_sent, (unsigned long long)r.elems_applied,
                (unsigned long long)r.elems_redundant,
                (unsigned long long)r.elems_straggler,
                (unsigned long long)r.elems_after_halt,
                (unsigned long long)(r.skip_msgs + r.segments_skipped * 1000000ull),
                (unsigned long long)r.ack_msgs, r.duration, r.receiver_done_at);
  return buf;
}

std::string digest_line(const char* tag, const RotatingVector& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (auto it = v.begin(); it != v.end(); ++it) {
    h = (h ^ it->site.value) * 1099511628211ull;
    h = (h ^ it->value) * 1099511628211ull;
    h = (h ^ (it->conflict ? 2 : 0) ^ (it->segment ? 1 : 0)) * 1099511628211ull;
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "vec:%s %llu", tag, (unsigned long long)h);
  return buf;
}

// Regenerate the exact grid the golden file was captured from. The seed, the
// draw order and the session parameters must never change — edit the golden
// file and this generator together or not at all.
std::vector<std::string> generate_grid() {
  std::vector<std::string> out;
  Rng rng(424242);
  for (auto kind : {VectorKind::kBrv, VectorKind::kCrv, VectorKind::kSrv}) {
    for (auto mode :
         {TransferMode::kPipelined, TransferMode::kStopAndWait, TransferMode::kIdeal}) {
      for (std::uint32_t budget : {0u, 1u, 4u, 16u}) {
        for (int trial = 0; trial < 4; ++trial) {
          const bool concurrent = kind != VectorKind::kBrv && trial % 2 == 1;
          VecPair p = make_pair_(rng, 8, 25, 12 + trial * 7, concurrent);
          const Ordering rel = compare_fast(p.a, p.b);
          if (rel == Ordering::kEqual || rel == Ordering::kAfter) continue;
          if (kind == VectorKind::kBrv && rel == Ordering::kConcurrent) continue;
          SyncOptions opt;
          opt.kind = kind;
          opt.mode = mode;
          opt.cost = CostModel{.n = 8, .m = 1 << 16};
          opt.net = {.latency_s = 0.0013, .bandwidth_bits_per_s = 997.0};
          opt.net.frame_budget = budget;
          sim::EventLoop loop;
          const SyncReport r = sync_rotating(loop, p.a, p.b, opt);
          char tag[64];
          std::snprintf(tag, sizeof tag, "rot:%d:%d:%u:%d", (int)kind, (int)mode, budget,
                        trial);
          out.push_back(report_line(tag, r));
          out.push_back(digest_line(tag, p.a));
        }
      }
    }
  }
  for (std::uint32_t budget : {0u, 8u}) {
    for (int trial = 0; trial < 3; ++trial) {
      VecPair p = make_pair_(rng, 8, 25, 12 + trial * 7, trial == 1);
      VersionVector va = p.a.to_version_vector();
      const VersionVector vb = p.b.to_version_vector();
      SyncOptions opt;
      opt.cost = CostModel{.n = 8, .m = 1 << 16};
      opt.net = {.latency_s = 0.0013, .bandwidth_bits_per_s = 997.0};
      opt.net.frame_budget = budget;
      sim::EventLoop loop;
      char tag[64];
      std::snprintf(tag, sizeof tag, "trad:%u:%d", budget, trial);
      out.push_back(report_line(tag, sync_traditional(loop, va, vb, opt)));
      VersionVector va2 = p.a.to_version_vector();
      VersionVector last = p.a.to_version_vector();
      sim::EventLoop loop2;
      std::snprintf(tag, sizeof tag, "sk:%u:%d", budget, trial);
      out.push_back(report_line(tag, sync_singhal_kshemkalyani(loop2, va2, vb, last, opt)));
    }
  }
  for (int trial = 0; trial < 6; ++trial) {
    VecPair p = make_pair_(rng, 6, 10, 5 + trial, trial % 2 == 0);
    sim::EventLoop loop;
    sim::NetConfig net{.latency_s = 0.0013, .bandwidth_bits_per_s = 997.0};
    const CompareSessionResult c =
        compare_session(loop, p.a, p.b, net, CostModel{.n = 6, .m = 1 << 16});
    char buf[128];
    std::snprintf(buf, sizeof buf, "cmp:%d %d %d %llu %.17g", trial, (int)c.at_a,
                  (int)c.at_b, (unsigned long long)c.total_bits, c.duration);
    out.push_back(buf);
  }
  return out;
}

std::vector<std::string> load_golden() {
  std::ifstream in(std::string(OPTREP_TEST_DATA_DIR) + "/golden_sessions.txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(SessionGolden, GridIsBitIdenticalToPreRefactorCapture) {
  const std::vector<std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "golden_sessions.txt missing or empty";
  const std::vector<std::string> now = generate_grid();
  ASSERT_EQ(now.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(now[i], golden[i]) << "golden line " << i + 1;
  }
}

// The recovery wrapper must be a strict no-op layer when faults are off:
// same report, same resulting vector, plus the recovery bookkeeping fields
// in their fault-free defaults.
TEST(SessionGolden, RecoveryWrapperIsIdentityWithoutFaults) {
  Rng rng(777);
  for (auto kind : {VectorKind::kBrv, VectorKind::kCrv, VectorKind::kSrv}) {
    for (int trial = 0; trial < 6; ++trial) {
      const bool concurrent = kind != VectorKind::kBrv && trial % 2 == 1;
      VecPair p = make_pair_(rng, 6, 15, 8 + trial * 3, concurrent);
      const Ordering rel = compare_fast(p.a, p.b);
      if (rel == Ordering::kEqual || rel == Ordering::kAfter) continue;
      if (kind == VectorKind::kBrv && rel == Ordering::kConcurrent) continue;
      SyncOptions opt;
      opt.kind = kind;
      opt.cost = CostModel{.n = 6, .m = 1 << 16};
      opt.net = {.latency_s = 0.001, .bandwidth_bits_per_s = 1000.0};
      RotatingVector plain = p.a;
      sim::EventLoop loop1;
      const SyncReport r1 = sync_rotating(loop1, plain, p.b, opt);
      RotatingVector wrapped = p.a;
      sim::EventLoop loop2;
      const SyncReport r2 = sync_with_recovery(loop2, wrapped, p.b, opt);
      EXPECT_EQ(report_line("x", r1), report_line("x", r2));
      EXPECT_EQ(digest_line("x", plain), digest_line("x", wrapped));
      EXPECT_EQ(r2.attempts, 1u);
      EXPECT_EQ(r2.retries, 0u);
      EXPECT_EQ(r2.recovery_bits, 0u);
      EXPECT_TRUE(r2.converged);
      EXPECT_EQ(r2.total_faults(), 0u);
    }
  }
}

}  // namespace
}  // namespace optrep::vv
