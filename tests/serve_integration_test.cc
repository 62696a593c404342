// End-to-end gate for the epoll sync server (src/net/server.h) against the
// simulator oracle: a real TCP client drives COMPARE / SYNCB / SYNCC / SYNCS
// push and pull sessions while the same session script runs through
// vv::sync_rotating on shadow vectors, and the final replica states must
// agree — byte-identical (identical_to: same values, same ≺ order, same
// bits) in stop-and-wait mode, value-identical in pipelined mode.
//
// The fault cases pin the PR 5 recovery invariant structurally: a connection
// killed at any record of a transferring push or pull must leave the
// receiver replica byte-identical to its pre-session state (server side
// checked through the concurrent snapshot path, client side on the local
// vector), and a capacity-rejected push must do the same while reporting
// DoneStatus::kCapacity. io_chunk = 1 feeds both directions one byte at a
// time, exercising the codec's kTruncated resume on every boundary.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/load_gen.h"
#include "net/server.h"
#include "serve_oracle.h"
#include "vv/compare.h"

namespace optrep::net {
namespace {

using test::oracle_sync;
using test::transfer_needed;
using vv::Ordering;
using vv::RotatingVector;
using vv::VectorKind;

SessionKind to_session_kind(VectorKind k) {
  switch (k) {
    case VectorKind::kBrv: return SessionKind::kSyncB;
    case VectorKind::kCrv: return SessionKind::kSyncC;
    default: return SessionKind::kSyncS;
  }
}

std::unique_ptr<Server> start_server(VectorKind kind, std::uint32_t replicas,
                                     std::uint32_t prefill, unsigned workers,
                                     std::size_t capacity = 1024) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.store.kind = kind;
  cfg.store.replicas = replicas;
  cfg.store.site_capacity = capacity;
  cfg.store.seed = 42;
  cfg.store.prefill_updates = prefill;
  auto sv = std::make_unique<Server>(cfg);
  std::string err;
  EXPECT_TRUE(sv->start(&err)) << err;
  return sv;
}

// Server-side counters advance asynchronously with a disconnect; poll.
bool poll_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// Runs the same seeded session script through the wire and through the
// oracle and requires the end states to agree.
void run_oracle_script(VectorKind kind, bool stop_and_wait, std::size_t io_chunk,
                       unsigned workers) {
  constexpr std::uint32_t kReplicas = 4;
  constexpr int kSteps = 60;
  auto sv = start_server(kind, kReplicas, /*prefill=*/6, workers);

  // Shadow state: the server's prefilled replicas (quiesced — no client has
  // connected yet) and the client vector, which starts empty.
  std::vector<RotatingVector> shadow(kReplicas);
  for (std::uint32_t r = 0; r < kReplicas; ++r) shadow[r] = sv->store().replica_unsafe(r);
  RotatingVector mine;
  RotatingVector shadow_mine;
  const SiteId own{100};

  SyncClient::Options copt;
  copt.port = sv->port();
  copt.io_chunk = io_chunk;
  SyncClient cl(copt);
  std::string err;
  ASSERT_TRUE(cl.connect(&err)) << err;

  Rng rng(0x5e55101ULL);
  for (int step = 0; step < kSteps; ++step) {
    const auto updates = rng.below(3);
    for (std::uint64_t u = 0; u < updates; ++u) {
      mine.record_update(own);
      shadow_mine.record_update(own);
    }
    const auto r = static_cast<std::uint32_t>(rng.below(kReplicas));
    const std::uint64_t action = rng.below(3);  // 0 compare, 1 push, 2 pull

    SyncClient::SessionSpec spec;
    spec.kind = action == 0 ? SessionKind::kCompare : to_session_kind(kind);
    spec.pull = action == 2;
    spec.stop_and_wait = stop_and_wait;
    spec.replica = r;
    spec.mine = &mine;
    spec.own_site = own;
    const SyncClient::SessionResult res = cl.run_session(spec);
    ASSERT_TRUE(res.ok) << "step " << step << ": " << res.error;
    ASSERT_EQ(res.accept, AcceptStatus::kOk);

    // Oracle step. res.relation is always client-vs-server.
    if (action == 0) {
      EXPECT_EQ(res.relation, vv::compare_fast(shadow_mine, shadow[r])) << "step " << step;
      EXPECT_FALSE(res.transfer);
    } else if (action == 1) {
      const Ordering rel =
          oracle_sync(shadow[r], shadow_mine, kind, sv->store().own_site(r), stop_and_wait);
      EXPECT_EQ(res.relation, flip(rel)) << "step " << step;
      EXPECT_EQ(res.transfer, transfer_needed(rel, kind)) << "step " << step;
      EXPECT_EQ(res.done,
                res.transfer ? DoneStatus::kCommitted : DoneStatus::kNoop)
          << "step " << step;
    } else {
      const Ordering rel = oracle_sync(shadow_mine, shadow[r], kind, own, stop_and_wait);
      EXPECT_EQ(res.relation, rel) << "step " << step;
      EXPECT_EQ(res.transfer, transfer_needed(rel, kind)) << "step " << step;
    }
    if (testing::Test::HasFatalFailure()) return;
  }

  cl.close();
  sv->stop();

  // Final-state agreement: every replica and the client vector.
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    if (stop_and_wait) {
      EXPECT_TRUE(sv->store().replica_unsafe(r).identical_to(shadow[r]))
          << "replica " << r << "\n got " << sv->store().replica_unsafe(r).to_string()
          << "\nwant " << shadow[r].to_string();
    } else {
      EXPECT_TRUE(sv->store().replica_unsafe(r).same_values(shadow[r].to_version_vector()))
          << "replica " << r << "\n got " << sv->store().replica_unsafe(r).to_string()
          << "\nwant " << shadow[r].to_string();
    }
  }
  if (stop_and_wait) {
    EXPECT_TRUE(mine.identical_to(shadow_mine))
        << " got " << mine.to_string() << "\nwant " << shadow_mine.to_string();
  } else {
    EXPECT_TRUE(mine.same_values(shadow_mine.to_version_vector()))
        << " got " << mine.to_string() << "\nwant " << shadow_mine.to_string();
  }

  const ServerStats st = sv->stats();
  EXPECT_EQ(st.sessions_completed, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(st.sessions_aborted, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
}

TEST(ServeOracle, BrvStopAndWaitByteIdentical) {
  run_oracle_script(VectorKind::kBrv, /*saw=*/true, /*io_chunk=*/65536, /*workers=*/1);
}
TEST(ServeOracle, CrvStopAndWaitByteIdentical) {
  run_oracle_script(VectorKind::kCrv, true, 65536, 1);
}
TEST(ServeOracle, SrvStopAndWaitByteIdentical) {
  run_oracle_script(VectorKind::kSrv, true, 65536, 1);
}
TEST(ServeOracle, BrvPipelinedSameValues) {
  run_oracle_script(VectorKind::kBrv, /*saw=*/false, 65536, 2);
}
TEST(ServeOracle, CrvPipelinedSameValues) {
  run_oracle_script(VectorKind::kCrv, false, 65536, 2);
}
TEST(ServeOracle, SrvPipelinedSameValues) {
  run_oracle_script(VectorKind::kSrv, false, 65536, 2);
}

// One byte per syscall in both directions: every frame crosses the decoder's
// kTruncated resume path, and the server's edge-triggered read loop must keep
// making progress on fragmented input.
TEST(ServeOracle, SingleByteIoChunkSurvivesShortReads) {
  run_oracle_script(VectorKind::kSrv, /*saw=*/true, /*io_chunk=*/1, /*workers=*/1);
}

// A push killed immediately before ANY outgoing record — from the COMPARE
// probe through mid-transfer to the final END — must leave the server
// replica byte-identical (the session ran on a private clone that was never
// committed). The snapshot read races only the server's teardown of the
// dead connection, which by the invariant never touches the slot.
TEST(ServeFaults, KilledPushLeavesServerReplicaUntouched) {
  auto sv = start_server(VectorKind::kSrv, /*replicas=*/2, /*prefill=*/8, /*workers=*/1);
  const SiteId own{100};

  SyncClient::Options copt;
  copt.port = sv->port();
  SyncClient cl(copt);
  std::string err;
  ASSERT_TRUE(cl.connect(&err)) << err;

  // Sync up, then diverge locally so a push has real elements to move.
  RotatingVector mine;
  SyncClient::SessionSpec pull;
  pull.kind = SessionKind::kSyncS;
  pull.pull = true;
  pull.replica = 0;
  pull.mine = &mine;
  pull.own_site = own;
  ASSERT_TRUE(cl.run_session(pull).ok);
  for (int u = 0; u < 5; ++u) mine.record_update(own);

  RotatingVector baseline;
  sv->store().snapshot(0, &baseline);
  ASSERT_FALSE(baseline.identical_to(mine)) << "push must not be a no-op";

  std::uint64_t aborted = 0;
  for (std::uint32_t rec = 2; rec <= 6; ++rec) {
    SyncClient::SessionSpec push;
    push.kind = SessionKind::kSyncS;
    push.replica = 0;
    push.mine = &mine;
    push.own_site = own;
    push.fault = {SyncClient::FaultPlan::Kind::kKill, rec, 0};
    const SyncClient::SessionResult res = cl.run_session(push);
    ASSERT_TRUE(res.killed) << "record " << rec;
    ASSERT_FALSE(res.ok);

    ++aborted;
    ASSERT_TRUE(poll_until([&] { return sv->stats().sessions_aborted >= aborted; }))
        << "server never noticed the dropped connection (record " << rec << ")";
    RotatingVector snap;
    sv->store().snapshot(0, &snap);
    EXPECT_TRUE(snap.identical_to(baseline))
        << "killed at record " << rec << " leaked partial state: " << snap.to_string();

    ASSERT_TRUE(cl.connect(&err)) << err;  // the kill closed the connection
  }
  EXPECT_EQ(sv->stats().commits, 0u);

  // The same push, unkilled, commits — proving the killed runs were not
  // no-ops that happened to leave the replica alone.
  SyncClient::SessionSpec push;
  push.kind = SessionKind::kSyncS;
  push.replica = 0;
  push.mine = &mine;
  push.own_site = own;
  const SyncClient::SessionResult res = cl.run_session(push);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.done, DoneStatus::kCommitted);
  // The client strictly dominated the replica (it pulled, then updated), so
  // the committed replica now carries exactly the client's values — though
  // not necessarily its rotation order, hence value equality.
  RotatingVector snap;
  sv->store().snapshot(0, &snap);
  EXPECT_TRUE(snap.same_values(mine.to_version_vector()))
      << " got " << snap.to_string() << "\nwant " << mine.to_string();
  EXPECT_EQ(sv->stats().commits, 1u);
}

// Pull-side mirror: the client receives into a private clone and copies it
// over `mine` only at a clean END — a connection killed right before the
// DONE record (the last outgoing record of a pull) must leave `mine`
// byte-identical.
TEST(ServeFaults, KilledPullLeavesClientVectorUntouched) {
  auto sv = start_server(VectorKind::kSrv, /*replicas=*/1, /*prefill=*/12, /*workers=*/1);

  SyncClient::Options copt;
  copt.port = sv->port();
  SyncClient cl(copt);
  std::string err;
  ASSERT_TRUE(cl.connect(&err)) << err;

  RotatingVector mine;  // empty ≺ prefilled replica: the pull must transfer
  const RotatingVector before = mine;
  for (std::uint32_t rec = 2; rec <= 4; ++rec) {
    SyncClient::SessionSpec pull;
    pull.kind = SessionKind::kSyncS;
    pull.pull = true;
    pull.replica = 0;
    pull.mine = &mine;
    pull.own_site = SiteId{100};
    pull.fault = {SyncClient::FaultPlan::Kind::kKill, rec, 0};
    const SyncClient::SessionResult res = cl.run_session(pull);
    ASSERT_TRUE(res.killed) << "record " << rec;
    EXPECT_TRUE(mine.identical_to(before)) << "killed at record " << rec;
    ASSERT_TRUE(cl.connect(&err)) << err;
  }

  // Clean pull converges.
  SyncClient::SessionSpec pull;
  pull.kind = SessionKind::kSyncS;
  pull.pull = true;
  pull.replica = 0;
  pull.mine = &mine;
  pull.own_site = SiteId{100};
  ASSERT_TRUE(cl.run_session(pull).ok);
  EXPECT_TRUE(mine.identical_to(sv->store().replica_unsafe(0)));
}

// A stalled record delays the session but must not corrupt it.
TEST(ServeFaults, StalledRecordStillCompletes) {
  auto sv = start_server(VectorKind::kSrv, 1, /*prefill=*/6, 1);
  SyncClient::Options copt;
  copt.port = sv->port();
  SyncClient cl(copt);
  std::string err;
  ASSERT_TRUE(cl.connect(&err)) << err;

  RotatingVector mine;
  SyncClient::SessionSpec pull;
  pull.kind = SessionKind::kSyncS;
  pull.pull = true;
  pull.replica = 0;
  pull.mine = &mine;
  pull.own_site = SiteId{100};
  pull.fault = {SyncClient::FaultPlan::Kind::kStall, 3, 50};
  const SyncClient::SessionResult res = cl.run_session(pull);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.stalled);
  EXPECT_TRUE(mine.identical_to(sv->store().replica_unsafe(0)));
}

// A push that exceeds the slot's pinned site capacity is rejected whole:
// DoneStatus::kCapacity and a byte-identical replica (no partial replay).
TEST(ServeFaults, CapacityRejectedPushIsWholeSessionNoop) {
  auto sv = start_server(VectorKind::kSrv, /*replicas=*/1, /*prefill=*/0, /*workers=*/1,
                         /*capacity=*/4);
  SyncClient::Options copt;
  copt.port = sv->port();
  SyncClient cl(copt);
  std::string err;
  ASSERT_TRUE(cl.connect(&err)) << err;

  RotatingVector mine;
  for (std::uint32_t s = 10; s < 16; ++s) mine.record_update(SiteId{s});  // 6 > 4

  SyncClient::SessionSpec push;
  push.kind = SessionKind::kSyncS;
  push.replica = 0;
  push.mine = &mine;
  push.own_site = SiteId{100};
  const SyncClient::SessionResult res = cl.run_session(push);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.done, DoneStatus::kCapacity);
  EXPECT_EQ(sv->store().replica_unsafe(0).size(), 0u);
  EXPECT_EQ(sv->stats().capacity_rejects, 1u);
  EXPECT_EQ(sv->stats().commits, 0u);
}

// Rejected HELLOs: a replica index out of range, a session kind that does
// not match the store's algorithm, and an undefined kind nibble all produce a
// typed ACCEPT status, and the server closes without counting a completed
// session.
TEST(ServeFaults, BadHellosGetTypedAcceptStatuses) {
  auto sv = start_server(VectorKind::kCrv, /*replicas=*/2, 0, 1);
  const SyncClient::Options copt{.port = sv->port()};

  {
    SyncClient cl(copt);
    std::string err;
    ASSERT_TRUE(cl.connect(&err)) << err;
    RotatingVector mine;
    SyncClient::SessionSpec bad;
    bad.kind = SessionKind::kSyncC;
    bad.replica = 7;  // out of range
    bad.mine = &mine;
    const SyncClient::SessionResult res = cl.run_session(bad);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.accept, AcceptStatus::kBadReplica);
  }
  {
    SyncClient cl(copt);
    std::string err;
    ASSERT_TRUE(cl.connect(&err)) << err;
    RotatingVector mine;
    SyncClient::SessionSpec bad;
    bad.kind = SessionKind::kSyncB;  // store speaks CRV
    bad.replica = 0;
    bad.mine = &mine;
    const SyncClient::SessionResult res = cl.run_session(bad);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.accept, AcceptStatus::kBadKind);
  }
  {
    // Kind nibbles 4..15 name no session. Masked to their low two bits they
    // would pass as defined kinds: 4/8/12 as COMPARE, 6/10/14 as this
    // store's SYNCC, and 7 (kind byte 0x07) as SYNCS against an SRV store.
    for (std::uint8_t nibble = 4; nibble <= kHelloKindMask; ++nibble) {
      SyncClient cl(copt);
      std::string err;
      ASSERT_TRUE(cl.connect(&err)) << err;
      RotatingVector mine;
      SyncClient::SessionSpec bad;
      bad.kind = static_cast<SessionKind>(nibble);
      bad.replica = 0;
      bad.mine = &mine;
      const SyncClient::SessionResult res = cl.run_session(bad);
      EXPECT_FALSE(res.ok) << "kind nibble " << int{nibble};
      EXPECT_EQ(res.accept, AcceptStatus::kBadKind) << "kind nibble " << int{nibble};
    }
  }
  EXPECT_TRUE(poll_until([&] { return sv->stats().bad_hellos >= 2 + 12; }));
  EXPECT_EQ(sv->stats().sessions_completed, 0u);
}

// Concurrent closed-loop load through the real stack: many clients, several
// reactor workers, shared replicas (write-ticket parking), pipelined
// transfers. Every attempted session must complete and the server must agree
// with the client-side tally. The TSan CI job reruns the ServeConcurrency
// suite under the race detector.
TEST(ServeConcurrency, ParallelClientsConvergeWithoutErrors) {
  LoadConfig cfg;
  cfg.clients = 8;
  cfg.sessions_per_client = 40;
  cfg.replicas = 4;           // heavy sharing
  cfg.shared_frac = 0.75;
  cfg.seed = 11;

  auto sv = start_server(VectorKind::kSrv, cfg.replicas, /*prefill=*/8, /*workers=*/4);
  cfg.port = sv->port();
  const LoadReport r = run_load(cfg);
  EXPECT_EQ(r.errors, 0u) << r.first_error;
  EXPECT_EQ(r.attempted, 8u * 40u);
  EXPECT_EQ(r.completed, r.attempted);

  const ServerStats st = sv->stats();
  EXPECT_EQ(st.sessions_completed, r.attempted);
  EXPECT_EQ(st.sessions_aborted, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
}

// Same under fault injection: kills and stalls across concurrent clients
// must abort cleanly (no decode errors, no protocol-level failures) and the
// server's abort count must cover every kill the clients recorded.
TEST(ServeConcurrency, FaultyParallelClientsAbortCleanly) {
  LoadConfig cfg;
  cfg.clients = 6;
  cfg.sessions_per_client = 30;
  cfg.replicas = 4;
  cfg.shared_frac = 0.5;
  cfg.kill_prob = 0.15;
  cfg.stall_prob = 0.1;
  cfg.stall_ms = 1;
  cfg.seed = 23;

  auto sv = start_server(VectorKind::kSrv, cfg.replicas, /*prefill=*/8, /*workers=*/4);
  cfg.port = sv->port();
  const LoadReport r = run_load(cfg);
  EXPECT_EQ(r.errors, 0u) << r.first_error;
  EXPECT_EQ(r.completed + r.killed, r.attempted);
  EXPECT_GT(r.killed, 0u);

  ASSERT_TRUE(poll_until([&] {
    const ServerStats st = sv->stats();
    return st.sessions_completed + st.sessions_aborted >= r.attempted;
  }));
  const ServerStats st = sv->stats();
  EXPECT_EQ(st.decode_errors, 0u);
  EXPECT_EQ(st.sessions_completed, r.completed);
}

}  // namespace
}  // namespace optrep::net
