// Direct adversarial fuzzing of the sans-I/O vector protocol cores.
//
// No event loop, no links, no clocks: the cores are pumped over in-memory
// FIFO queues by a harness (core_harness.h) that drops, duplicates, reorders
// and corrupts messages at delivery time. This exercises exactly the robustness contract
// in protocol/core.h — a core must tolerate ANY event sequence without
// aborting — and the recovery model: a faulted attempt may leave the
// receiver short or wrong, but restarting from the original receiver state
// (what sync_with_recovery does) must converge to the element-wise maximum
// once a fault-free attempt runs.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tests/core_harness.h"
#include "vv/compare.h"
#include "vv/protocol/compare_core.h"
#include "vv/protocol/receiver_core.h"
#include "vv/protocol/sender_core.h"
#include "vv/rotating_vector.h"

namespace optrep::vv::protocol {
namespace {

// Random control-plane garbage. Element values stay 0 on purpose: the wire
// model's checksum rules out silently corrupted payloads, so an element that
// would *apply* (value above the receiver's) can never materialize from thin
// air — but every other impossible kind/flag/arg combination can.
VvMsg garbage_msg(Rng& rng) {
  VvMsg m;
  m.kind = static_cast<VvMsg::Kind>(rng.range(0, 6));
  m.site = SiteId{static_cast<std::uint32_t>(rng.range(0, 1 << 10))};
  m.conflict = rng.chance(0.5);
  m.segment = rng.chance(0.5);
  m.arg = rng.range(0, 1 << 10);
  return m;
}

using test::FaultPlan;

// The shared queue harness (core_harness.h) over the element sender.
template <typename ReceiverCore>
using CoreHarness = test::CoreHarness<VvMsg, ElementSenderCore, ReceiverCore>;

// §2.1-conformant pair from a gossip world: each replica increments only its
// own site's counter, and may adopt another replica's full state when that
// state covers its own (the resulting vector is exactly what a fresh replica
// pulling everything would hold, so every world state is reachable by a real
// history). Drawing both vectors from one world keeps the rotation-order
// invariant the receiver-halt rule relies on — independent random vectors can
// coincidentally agree on an element's value without sharing the history
// behind it, which no real version-vector run can do (element s is only ever
// incremented at site s).
struct VecPair {
  RotatingVector a;
  RotatingVector b;
};

std::optional<VecPair> try_world_pair(Rng& rng, std::uint32_t n_sites,
                                      bool want_concurrent) {
  std::vector<RotatingVector> w(n_sites);
  const std::uint64_t steps = rng.range(20, 80);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.range(0, n_sites - 1));
    if (rng.chance(0.55)) {
      w[r].record_update(SiteId{r});
    } else {
      const auto s = static_cast<std::uint32_t>(rng.range(0, n_sites - 1));
      if (s != r && compare_full(w[r], w[s]) == Ordering::kBefore) w[r] = w[s];
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cands;
  for (std::uint32_t i = 0; i < n_sites; ++i)
    for (std::uint32_t j = 0; j < n_sites; ++j) {
      if (i == j) continue;
      const Ordering rel = compare_full(w[i], w[j]);
      if (want_concurrent ? rel == Ordering::kConcurrent : rel == Ordering::kBefore)
        cands.push_back({i, j});
    }
  if (cands.empty()) return std::nullopt;
  const auto [i, j] = cands[rng.range(0, cands.size() - 1)];
  return VecPair{w[i], w[j]};
}

VecPair make_pair_(Rng& rng, std::uint32_t n_sites, bool want_concurrent) {
  for (;;) {
    if (auto p = try_world_pair(rng, n_sites, want_concurrent)) return *p;
  }
}

bool is_elementwise_max(const RotatingVector& a, const RotatingVector& orig,
                        const RotatingVector& b) {
  for (auto it = b.begin(); it != b.end(); ++it)
    if (a.value(it->site) != std::max(orig.value(it->site), it->value)) return false;
  for (auto it = orig.begin(); it != orig.end(); ++it)
    if (a.value(it->site) < it->value) return false;
  return true;
}

enum class Algo { kBasic, kConflict, kSkip };

template <typename Fn>
void run_attempt(Algo algo, bool pipelined, const RotatingVector& b, RotatingVector& a,
                 bool concurrent, Rng& rng, FaultPlan faults, Fn&& check) {
  ElementSenderCore::Config scfg;
  scfg.skip_enabled = algo == Algo::kSkip;
  scfg.pipelined = pipelined;
  switch (algo) {
    case Algo::kBasic: {
      CoreHarness<BasicReceiverCore> h(ElementSenderCore(scfg, &b),
                                       BasicReceiverCore(pipelined, &a), rng, faults);
      h.run();
      check(h.receiver().counters());
      break;
    }
    case Algo::kConflict: {
      CoreHarness<ConflictReceiverCore> h(
          ElementSenderCore(scfg, &b), ConflictReceiverCore(pipelined, &a, concurrent), rng,
          faults);
      h.run();
      check(h.receiver().counters());
      break;
    }
    case Algo::kSkip: {
      CoreHarness<SkipReceiverCore> h(
          ElementSenderCore(scfg, &b), SkipReceiverCore(pipelined, &a, concurrent), rng,
          faults);
      h.run();
      check(h.receiver().counters());
      break;
    }
  }
}

// Lossy attempts restart from the original receiver state (the
// sync_with_recovery model); a fault-free attempt must then produce exactly
// the element-wise maximum (Theorem 3.1) for every algorithm and mode.
TEST(ProtocolCoreFuzz, LossyAttemptsThenCleanRetryConverge) {
  Rng rng(20260807);
  const FaultPlan lossy{.drop = 0.15, .dup = 0.1, .reorder = 0.15, .corrupt = 0.08};
  for (int iter = 0; iter < 120; ++iter) {
    for (Algo algo : {Algo::kBasic, Algo::kConflict, Algo::kSkip}) {
      for (bool pipelined : {true, false}) {
        const bool concurrent = algo != Algo::kBasic && rng.chance(0.5);
        VecPair p = make_pair_(rng, 6, concurrent);
        const RotatingVector original = p.a;
        bool converged = false;
        const int max_attempts = 6;
        for (int attempt = 0; attempt < max_attempts && !converged; ++attempt) {
          p.a = original;  // every attempt restarts from the pre-sync state
          const FaultPlan plan = attempt == max_attempts - 1 ? FaultPlan{} : lossy;
          run_attempt(algo, pipelined, p.b, p.a, concurrent, rng, plan,
                      [](const ReceiverCounters&) {});
          converged = is_elementwise_max(p.a, original, p.b);
        }
        EXPECT_TRUE(converged) << "iter " << iter << " algo " << (int)algo
                               << " pipelined " << pipelined;
      }
    }
  }
}

// Fault-free runs through the in-memory harness (uniformly random event
// interleaving, still FIFO per direction) must converge on the first
// attempt and classify every element without protocol violations.
TEST(ProtocolCoreFuzz, FaultFreeHarnessConvergesFirstAttempt) {
  Rng rng(99173);
  for (int iter = 0; iter < 200; ++iter) {
    for (Algo algo : {Algo::kBasic, Algo::kConflict, Algo::kSkip}) {
      for (bool pipelined : {true, false}) {
        const bool concurrent = algo != Algo::kBasic && rng.chance(0.5);
        VecPair p = make_pair_(rng, 5, concurrent);
        const RotatingVector original = p.a;
        run_attempt(algo, pipelined, p.b, p.a, concurrent, rng, FaultPlan{},
                    [](const ReceiverCounters& c) { EXPECT_EQ(c.violations, 0u); });
        EXPECT_TRUE(is_elementwise_max(p.a, original, p.b))
            << "iter " << iter << " algo " << (int)algo << " pipelined " << pipelined;
      }
    }
  }
}

// Pure garbage: every core must absorb arbitrary event sequences — random
// message kinds and fields, spurious link-free ticks, repeated starts, an
// abort in the middle — without crashing. Impossible wire messages surface
// as counted violations, never as failures.
TEST(ProtocolCoreFuzz, CoresTolerateArbitraryEventSequences) {
  Rng rng(5551212);
  for (int iter = 0; iter < 300; ++iter) {
    VecPair p = make_pair_(rng, 4, rng.chance(0.5));
    ElementSenderCore::Config scfg;
    scfg.skip_enabled = rng.chance(0.5);
    scfg.pipelined = rng.chance(0.5);
    ElementSenderCore sender(scfg, &p.b);
    BasicReceiverCore basic(scfg.pipelined, &p.a);
    RotatingVector a2 = p.a;
    ConflictReceiverCore conflict(scfg.pipelined, &a2, rng.chance(0.5));
    RotatingVector a3 = p.a;
    SkipReceiverCore skip(scfg.pipelined, &a3, rng.chance(0.5));
    CompareCore cmp(&p.a);
    Actions out;
    const int events = static_cast<int>(rng.range(10, 80));
    for (int e = 0; e < events; ++e) {
      Event ev;
      switch (rng.range(0, 3)) {
        case 0: ev = Event::start(); break;
        case 1: ev = Event::msg_arrival(garbage_msg(rng)); break;
        case 2: ev = Event::link_free(); break;
        case 3: ev = Event::abort(); break;
      }
      out.clear();
      sender.step(ev, out);
      out.clear();
      basic.step(ev, out);
      out.clear();
      conflict.step(ev, out);
      out.clear();
      skip.step(ev, out);
      out.clear();
      cmp.step(ev, out);
    }
  }
}

// COMPARE over the in-memory queues, including duplicated delivery, agrees
// with the exact comparison oracle at both endpoints.
TEST(ProtocolCoreFuzz, CompareCoreMatchesOracle) {
  Rng rng(31337);
  for (int iter = 0; iter < 400; ++iter) {
    VecPair p = make_pair_(rng, 5, rng.chance(0.6));
    CompareCore at_a(&p.a);
    CompareCore at_b(&p.b);
    std::deque<VvMsg> to_a, to_b;
    Actions out;
    at_a.step(Event::start(), out);
    for (const Action& act : out) to_b.push_back(act.msg);
    out.clear();
    at_b.step(Event::start(), out);
    for (const Action& act : out) to_a.push_back(act.msg);
    std::uint64_t guard = 0;
    while ((!to_a.empty() || !to_b.empty()) && guard++ < 1000) {
      const bool pick_a = !to_a.empty() && (to_b.empty() || rng.chance(0.5));
      std::deque<VvMsg>& q = pick_a ? to_a : to_b;
      CompareCore& dst = pick_a ? at_a : at_b;
      std::deque<VvMsg>& back = pick_a ? to_b : to_a;
      VvMsg m = q.front();
      if (!rng.chance(0.15)) q.pop_front();  // else duplicate delivery
      out.clear();
      dst.step(Event::msg_arrival(m), out);
      for (const Action& act : out) back.push_back(act.msg);
    }
    ASSERT_TRUE(at_a.complete() && at_b.complete());
    EXPECT_EQ(at_a.decide(), compare_full(p.a, p.b)) << "iter " << iter;
    EXPECT_EQ(at_b.decide(), compare_full(p.b, p.a)) << "iter " << iter;
  }
}

}  // namespace
}  // namespace optrep::vv::protocol
