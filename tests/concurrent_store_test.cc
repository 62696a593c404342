// Concurrency fuzz for the olock-embedded storage structures: a single
// writer mutates vv::RotatingVector / vv::FlatSiteIndex under the writer
// queue while optimistic readers race the probe/walk paths. The writer keeps
// a race-free oracle keyed by lock version (it alone advances the epoch, so
// the version observed by a validated reader names exactly one committed
// state); after the join every validated reader observation is checked
// against the oracle entry for its epoch. This is the differential-fuzz
// idiom of flat_storage_fuzz_test.cc lifted to concurrent executions, and
// the binary is part of the TSan CI job — the sanitizer checks the memory
// model while the oracle checks linearizability of validated reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "rt/olock.h"
#include "vv/flat_index.h"
#include "vv/rotating_vector.h"

namespace optrep::vv {
namespace {

constexpr std::uint64_t kSigSeed = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kTorn = 0xffffffffffffffffULL;  // walk exceeded bound

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Order-sensitive signature of the vector's rotation list. A concurrent
// writer can make the walk observe a transiently cyclic or stretched chain,
// so the step count is capped; an over-long walk returns kTorn and the
// caller discards the attempt (validation would fail anyway — the cap only
// bounds the work).
std::uint64_t vector_signature(const RotatingVector& v, std::uint32_t max_steps) {
  std::uint64_t h = kSigSeed;
  std::uint32_t steps = 0;
  for (const RotatingVector::Element e : v) {
    if (++steps > max_steps) return kTorn;
    h = mix(h, e.site.value);
    h = mix(h, e.value);
    h = mix(h, static_cast<std::uint64_t>(e.conflict) << 1 |
                   static_cast<std::uint64_t>(e.segment));
  }
  return h;
}

TEST(ConcurrentRotatingVector, ValidatedReadersMatchPerVersionOracle) {
  constexpr std::uint32_t kSites = 24;
  constexpr std::uint32_t kOps = 6000;
  constexpr std::uint32_t kReaders = 3;

  RotatingVector vec;
  vec.reserve(kSites);  // concurrent-reader contract: no table growth after this

  // Writer-only oracle: lock version -> signature of the state committed at
  // that version. Published to readers by the joins (happens-before), never
  // written concurrently with their lookups.
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  oracle[vec.olock().version()] = vector_signature(vec, kSites + 1);

  struct Obs {
    std::uint64_t version;
    std::uint64_t sig;
  };
  std::atomic<bool> stop{false};
  std::vector<std::vector<Obs>> seen(kReaders);
  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&vec, &stop, &seen, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t snap = vec.olock().read_begin();
        const std::uint64_t sig = vector_signature(vec, kSites + 1);
        if (sig != kTorn && vec.olock().read_validate(snap)) {
          seen[r].push_back({snap >> 1, sig});
        }
      }
    });
  }

  Rng rng(0x5eedULL);
  std::unordered_set<std::uint32_t> present;  // writer-local membership
  for (std::uint32_t op = 0; op < kOps; ++op) {
    const SiteId site{static_cast<std::uint32_t>(rng.below(kSites))};
    const std::uint64_t roll = rng.below(10);
    {
      rt::OLockGuard g(vec.olock());
      if (roll < 5 || present.empty()) {
        vec.record_update(site);
        present.insert(site.value);
      } else if (roll < 7 && present.count(site.value) != 0) {
        vec.erase(site);
        present.erase(site.value);
      } else if (present.count(site.value) != 0) {
        vec.set_conflict_bit(site, roll % 2 == 0);
        vec.set_segment_bit(site, roll % 3 == 0);
      } else {
        vec.record_update(site);
        present.insert(site.value);
      }
    }
    oracle[vec.olock().version()] = vector_signature(vec, kSites + 1);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::uint64_t validated = 0;
  for (const std::vector<Obs>& obs : seen) {
    for (const Obs& o : obs) {
      const auto it = oracle.find(o.version);
      ASSERT_NE(it, oracle.end()) << "validated reader saw unknown epoch " << o.version;
      EXPECT_EQ(it->second, o.sig) << "epoch " << o.version;
      ++validated;
    }
  }
  // Post-quiescence the read path must validate (sanity that readers ran
  // against a live structure, not a permanently failing one).
  const std::uint64_t snap = vec.olock().read_begin();
  EXPECT_NE(vector_signature(vec, kSites + 1), kTorn);
  EXPECT_TRUE(vec.olock().read_validate(snap));
  SUCCEED() << validated << " validated reads cross-checked";
}

// The writer pattern of net::ReplicaStore::commit, socket-free: erase every
// element (the erase churn runs compact(), which shrinks the columns in
// place) and replay the same elements, so the re-inserts past the shrunk
// height go through insert_front's push path. Readers walk concurrently and
// may follow a stale link into exactly the cells those pushes refill, so the
// refill must be an atomic store like every other shared word; with plain
// column stores TSan (the CI tsan job runs this binary) reports the race.
// Every replay restores the same state, so each validated walk must see it.
TEST(ConcurrentRotatingVector, ReplayAfterCompactionRacesNoReader) {
  constexpr std::uint32_t kSites = 24;
  constexpr std::uint32_t kRounds = 2000;
  constexpr std::uint32_t kReaders = 2;

  RotatingVector vec;
  vec.reserve(kSites);  // pinned capacity: the replay never reallocates
  for (std::uint32_t s = 0; s < kSites; ++s) vec.record_update(SiteId{s});
  vec.set_segment_bit(SiteId{kSites / 2}, true);
  const std::vector<RotatingVector::Element> elems = vec.in_order();
  const std::uint64_t committed = vector_signature(vec, kSites + 1);

  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> mismatched(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t snap = vec.olock().read_begin();
        const std::uint64_t sig = vector_signature(vec, kSites + 1);
        if (sig != kTorn && vec.olock().read_validate(snap) && sig != committed) {
          ++mismatched[r];
        }
      }
    });
  }

  std::size_t min_height = kSites;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    {
      rt::OLockGuard g(vec.olock());
      while (const auto f = vec.front()) vec.erase(f->site);
      min_height = std::min(min_height, vec.slot_count());
      std::optional<SiteId> prev;
      for (const RotatingVector::Element& e : elems) {
        vec.rotate_after(prev, e.site);
        vec.set_element(e.site, e.value, e.conflict, e.segment);
        prev = e.site;
      }
    }
    std::this_thread::yield();  // leave readers a committed window
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Compaction shrank the columns, so most re-inserts took the push path.
  EXPECT_LT(min_height, kSites / 2);
  EXPECT_EQ(vector_signature(vec, kSites + 1), committed);
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatched[r], 0u) << "reader " << r << " validated a torn walk";
  }
}

TEST(ConcurrentFlatSiteIndex, ValidatedProbesMatchPerVersionOracle) {
  constexpr std::uint32_t kKeys = 48;
  constexpr std::uint32_t kOps = 6000;
  constexpr std::uint32_t kReaders = 3;

  FlatSiteIndex idx;
  idx.reserve(kKeys);  // no rehash while readers race (concurrency contract)

  // version -> full key→slot map at that epoch (writer-only, read post-join).
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint32_t, std::uint32_t>>
      oracle;
  std::unordered_map<std::uint32_t, std::uint32_t> state;
  oracle[idx.olock().version()] = state;

  struct Obs {
    std::uint64_t version;
    std::uint32_t key;
    std::uint32_t slot;  // FlatSiteIndex::kNilSlot when absent
  };
  std::atomic<bool> stop{false};
  std::vector<std::vector<Obs>> seen(kReaders);
  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&idx, &stop, &seen, r] {
      Rng rng(0x600dULL + r);
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint32_t key = static_cast<std::uint32_t>(rng.below(kKeys));
        const std::uint64_t snap = idx.olock().read_begin();
        const std::uint32_t slot = idx.find(SiteId{key});
        if (idx.olock().read_validate(snap)) {
          seen[r].push_back({snap >> 1, key, slot});
        }
      }
    });
  }

  Rng rng(0xf00dULL);
  std::uint32_t next_slot = 1;
  for (std::uint32_t op = 0; op < kOps; ++op) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.below(kKeys));
    {
      rt::OLockGuard g(idx.olock());
      const auto it = state.find(key);
      if (it == state.end()) {
        idx.insert(SiteId{key}, next_slot);
        state.emplace(key, next_slot);
        ++next_slot;
      } else {
        // Backward-shift deletion while readers probe: the displaced suffix
        // moves under them, which validation must catch.
        idx.erase(SiteId{key});
        state.erase(it);
      }
    }
    oracle[idx.olock().version()] = state;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (const std::vector<Obs>& obs : seen) {
    for (const Obs& o : obs) {
      const auto epoch = oracle.find(o.version);
      ASSERT_NE(epoch, oracle.end()) << "validated probe saw unknown epoch " << o.version;
      const auto it = epoch->second.find(o.key);
      const std::uint32_t want =
          it == epoch->second.end() ? FlatSiteIndex::kNilSlot : it->second;
      EXPECT_EQ(o.slot, want) << "epoch " << o.version << " key " << o.key;
    }
  }
}

// The deterministic core of the race above: a backward-shifting erase moves
// a colliding key to a different cell between a reader's probe and its
// validation. The stale answer may be wrong in either direction (hit the old
// cell or miss entirely) — the version stamp is what rejects it.
TEST(FlatSiteIndexOlock, BackwardShiftDeletionInvalidatesInFlightProbe) {
  FlatSiteIndex idx;
  idx.reserve(16);
  for (std::uint32_t k = 0; k < 12; ++k) idx.insert(SiteId{k}, k + 100);

  const std::uint64_t snap = idx.olock().read_begin();
  // Probe mid-read: answers are correct for the snapshot epoch...
  EXPECT_EQ(idx.find(SiteId{7}), 107u);
  // ...then a writer erases a key, backward-shifting the cluster suffix.
  {
    rt::OLockGuard g(idx.olock());
    EXPECT_TRUE(idx.erase(SiteId{3}));
  }
  // The in-flight snapshot is now stale and must NOT validate, even though
  // the individual probe happened to return a live value.
  EXPECT_FALSE(idx.olock().read_validate(snap));

  // The retry protocol: re-begin, re-probe, validate — now consistent.
  const std::uint64_t snap2 = idx.olock().read_begin();
  EXPECT_EQ(idx.find(SiteId{7}), 107u);
  EXPECT_EQ(idx.find(SiteId{3}), FlatSiteIndex::kNilSlot);
  EXPECT_TRUE(idx.olock().read_validate(snap2));
}

// Same protocol on the rotating vector: a rotation between begin and
// validate invalidates the walk even when every element value it returned
// still exists (the ORDER is the rotated state, §3 — stale order must not
// leak into session logic).
TEST(RotatingVectorOlock, RotationInvalidatesInFlightWalk) {
  RotatingVector v;
  v.reserve(8);
  for (std::uint32_t s = 0; s < 4; ++s) v.record_update(SiteId{s});

  const std::uint64_t snap = v.olock().read_begin();
  const std::uint64_t sig_before = vector_signature(v, 9);
  {
    rt::OLockGuard g(v.olock());
    v.record_update(SiteId{2});  // rotates site 2 to the front
  }
  EXPECT_FALSE(v.olock().read_validate(snap));

  const std::uint64_t snap2 = v.olock().read_begin();
  EXPECT_NE(vector_signature(v, 9), sig_before);
  EXPECT_TRUE(v.olock().read_validate(snap2));
}

}  // namespace
}  // namespace optrep::vv
