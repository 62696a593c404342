// Socket-free sessions: a client-role and a server-role net::SessionEngine
// joined by two in-memory byte queues and StreamDecoders — no sockets, no
// threads, no clock. Every session kind × push/pull × stop-and-wait/pipelined
// is checked against the simulator oracle (serve_oracle.h), and the data
// sender's byte stream of a transferring SYNCS push and pull is cut at every
// byte offset: no cut before the END record may commit anything on the
// receiver, and the whole stream commits the oracle's vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "net/session_engine.h"
#include "serve_oracle.h"
#include "vv/compare.h"

namespace optrep::net {
namespace {

using test::oracle_sync;
using test::transfer_needed;
using vv::Ordering;
using vv::RotatingVector;
using vv::VectorKind;

constexpr std::size_t kNoCut = std::numeric_limits<std::size_t>::max();

// One endpoint: an engine whose gate always passes and whose commit point
// replaces the endpoint's live vector.
struct Endpoint final : SessionEngine::Host {
  explicit Endpoint(RotatingVector* v) : live(v) { engine.work() = *v; }

  DoneStatus commit(RotatingVector& work) override {
    *live = work;
    ++commits;
    return DoneStatus::kCommitted;
  }

  RotatingVector* live;
  SessionEngine engine{this};
  StreamDecoder in;
  int commits{0};
};

struct Outcome {
  Ordering client_rel{Ordering::kEqual};  // client vector vs server vector
  bool transfer{false};
  DoneStatus done{DoneStatus::kNoop};
  bool finished{false};                   // both engines saw the DONE exchange
  int receiver_commits{0};
  std::vector<std::uint8_t> sender_stream;  // every byte the data sender emitted
};

// Runs one session between the client vector and a server replica to
// quiescence. The data sender's stream reaches the receiver only up to
// `cut` bytes; everything after is lost, as if the connection dropped.
Outcome run_in_memory(RotatingVector& client, RotatingVector& server, SessionKind kind,
                      bool pull, bool stop_and_wait, SiteId client_site, SiteId server_site,
                      std::size_t cut = kNoCut) {
  Endpoint c(&client);
  Endpoint s(&server);
  const bool client_sends = kind == SessionKind::kCompare || !pull;
  EXPECT_TRUE(c.engine.begin(kind, client_sends, stop_and_wait, client_site));
  EXPECT_TRUE(s.engine.begin(kind, !client_sends, stop_and_wait, server_site));
  Endpoint& sender = client_sends ? c : s;
  Outcome o;
  for (bool moved = true; moved;) {
    moved = false;
    for (Endpoint* from : {&c, &s}) {
      Endpoint& to = from == &c ? s : c;
      EXPECT_TRUE(from->engine.pump());
      const std::size_t n = from->engine.out_size();
      if (n == 0) continue;
      moved = true;
      std::size_t deliver = n;
      if (from == &sender) {
        const std::size_t before = o.sender_stream.size();
        deliver = before >= cut ? 0 : std::min(n, cut - before);
        o.sender_stream.insert(o.sender_stream.end(), from->engine.out_data(),
                               from->engine.out_data() + n);
      }
      to.in.append(from->engine.out_data(), deliver);
      from->engine.consume(n);
      for (auto item = to.in.next(); item.type != StreamDecoder::ItemType::kNeedMore;
           item = to.in.next()) {
        EXPECT_NE(item.type, StreamDecoder::ItemType::kError);
        if (item.type == StreamDecoder::ItemType::kError) return o;
        EXPECT_TRUE(to.engine.on_item(item)) << to.engine.breach();
      }
    }
  }
  o.client_rel = c.engine.relation();
  o.transfer = c.engine.transfer();
  o.done = c.engine.done();
  o.finished = !c.engine.active() && !s.engine.active();
  if (o.finished) {  // both halves agree on what the session was
    EXPECT_EQ(s.engine.relation(), vv::flip(o.client_rel));
    EXPECT_EQ(s.engine.transfer(), o.transfer);
    EXPECT_EQ(s.engine.done(), o.done);
  }
  o.receiver_commits = (client_sends ? s : c).commits;
  return o;
}

// The kind-by-flow matrix: a seeded script of sessions between one client
// and a few server replicas, replayed on shadow vectors through the oracle.
// Between sessions either side may catch up out of band (a copy of the
// other's vector) and take local updates, so every relation — and with it
// every transfer path — comes up even for SYNCB, which cannot reconcile ‖.
void run_script(SessionKind kind, bool pull, bool stop_and_wait) {
  SCOPED_TRACE(testing::Message() << to_string(kind) << (pull ? " pull" : " push")
                                  << (stop_and_wait ? " stop-and-wait" : " pipelined"));
  const VectorKind vk = kind == SessionKind::kCompare ? VectorKind::kSrv : vector_kind_of(kind);
  constexpr std::uint32_t kReplicas = 3;
  constexpr int kSteps = 40;
  const SiteId own{100};
  const auto server_site = [](std::uint32_t r) { return SiteId{r + 1}; };

  std::vector<RotatingVector> replicas(kReplicas);
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    for (int u = 0; u < 4; ++u) replicas[r].record_update(server_site(r));
  }
  std::vector<RotatingVector> shadow = replicas;
  RotatingVector mine;
  RotatingVector shadow_mine;

  Rng rng(0x5e55e11ULL + static_cast<std::uint64_t>(kind) * 4 + (pull ? 2 : 0) +
          (stop_and_wait ? 1 : 0));
  int transfers = 0;
  for (int step = 0; step < kSteps; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.below(kReplicas));
    switch (rng.below(4)) {
      case 0:
        mine = replicas[r];
        shadow_mine = shadow[r];
        break;
      case 1:
        replicas[r] = mine;
        shadow[r] = shadow_mine;
        break;
      default:
        break;
    }
    for (std::uint64_t u = rng.below(3); u > 0; --u) {
      mine.record_update(own);
      shadow_mine.record_update(own);
    }
    if (rng.below(3) == 0) {
      replicas[r].record_update(server_site(r));
      shadow[r].record_update(server_site(r));
    }
    const Outcome o = run_in_memory(mine, replicas[r], kind, pull, stop_and_wait, own,
                                    server_site(r));
    ASSERT_TRUE(o.finished) << "step " << step;
    if (kind == SessionKind::kCompare) {
      EXPECT_EQ(o.client_rel, vv::compare_fast(shadow_mine, shadow[r])) << "step " << step;
      EXPECT_FALSE(o.transfer) << "step " << step;
      EXPECT_EQ(o.done, DoneStatus::kNoop) << "step " << step;
      continue;
    }
    const Ordering rel = pull ? oracle_sync(shadow_mine, shadow[r], vk, own, stop_and_wait)
                              : oracle_sync(shadow[r], shadow_mine, vk, server_site(r),
                                            stop_and_wait);
    EXPECT_EQ(o.client_rel, pull ? rel : vv::flip(rel)) << "step " << step;
    EXPECT_EQ(o.transfer, transfer_needed(rel, vk)) << "step " << step;
    EXPECT_EQ(o.done, o.transfer ? DoneStatus::kCommitted : DoneStatus::kNoop)
        << "step " << step;
    EXPECT_EQ(o.receiver_commits, o.transfer ? 1 : 0) << "step " << step;
    transfers += o.transfer ? 1 : 0;
  }
  if (kind != SessionKind::kCompare) {
    EXPECT_GT(transfers, 0);
  }

  // Lockstep sessions are byte-identical to the simulator; pipelined ones
  // may rotate differently after a halted speculative tail.
  const auto agree = [&](const RotatingVector& got, const RotatingVector& want) {
    return stop_and_wait ? got.identical_to(want)
                         : got.same_values(want.to_version_vector());
  };
  EXPECT_TRUE(agree(mine, shadow_mine))
      << " got " << mine.to_string() << "\nwant " << shadow_mine.to_string();
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    EXPECT_TRUE(agree(replicas[r], shadow[r]))
        << "replica " << r << "\n got " << replicas[r].to_string() << "\nwant "
        << shadow[r].to_string();
  }
}

TEST(SessionEngine, EveryKindAndFlowMatchesSimulatorOracle) {
  for (const SessionKind kind : {SessionKind::kCompare, SessionKind::kSyncB,
                                 SessionKind::kSyncC, SessionKind::kSyncS}) {
    for (const bool pull : {false, true}) {
      for (const bool stop_and_wait : {true, false}) {
        run_script(kind, pull, stop_and_wait);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A concurrent SYNCS pair with real work on both sides: a shared history
// over many sites, then each side pulls a different third party's fresh
// updates and takes local updates of its own, so the session runs COMPARE,
// a multi-element transfer and the §2.2 update at commit.
void concurrent_pair(RotatingVector* client, RotatingVector* server, SiteId own,
                     SiteId server_own) {
  RotatingVector base;
  Rng rng(0xc07ULL);
  for (int u = 0; u < 120; ++u) {
    base.record_update(SiteId{10 + static_cast<std::uint32_t>(rng.below(24))});
  }
  const auto learn = [&base](std::uint32_t first_site) {
    RotatingVector third = base;
    for (std::uint32_t s = 0; s < 8; ++s) third.record_update(SiteId{first_site + s});
    RotatingVector v = base;
    oracle_sync(v, third, VectorKind::kSrv, SiteId{0}, /*stop_and_wait=*/true);
    return v;
  };
  *client = learn(40);
  *server = learn(60);
  for (int u = 0; u < 5; ++u) client->record_update(own);
  server->record_update(server_own);
}

// Cut the data sender's stream after every byte offset. Every cut before the
// END record leaves the receiver's committed vector byte-identical to its
// pre-session state; the whole stream commits the oracle's vector.
void sweep_cuts(bool pull, bool stop_and_wait) {
  SCOPED_TRACE(testing::Message() << (pull ? "pull" : "push")
                                  << (stop_and_wait ? " stop-and-wait" : " pipelined"));
  const SiteId own{100};
  const SiteId server_own{1};
  RotatingVector client;
  RotatingVector server;
  concurrent_pair(&client, &server, own, server_own);
  ASSERT_EQ(vv::compare_fast(client, server), Ordering::kConcurrent);

  // The uncut session: its stream fixes the END offset, and its outcome
  // must be the oracle's.
  RotatingVector full_client = client;
  RotatingVector full_server = server;
  const Outcome full = run_in_memory(full_client, full_server, SessionKind::kSyncS, pull,
                                     stop_and_wait, own, server_own);
  ASSERT_TRUE(full.finished);
  ASSERT_TRUE(full.transfer);
  ASSERT_EQ(full.done, DoneStatus::kCommitted);
  ASSERT_FALSE(full.sender_stream.empty());
  ASSERT_EQ(full.sender_stream.back(), kCtlEnd) << "END is the data sender's last record";
  RotatingVector want_client = client;
  RotatingVector want_server = server;
  if (pull) {
    oracle_sync(want_client, want_server, VectorKind::kSrv, own, stop_and_wait);
  } else {
    oracle_sync(want_server, want_client, VectorKind::kSrv, server_own, stop_and_wait);
  }
  const RotatingVector& got = pull ? full_client : full_server;
  const RotatingVector& want = pull ? want_client : want_server;
  EXPECT_TRUE(stop_and_wait ? got.identical_to(want)
                            : got.same_values(want.to_version_vector()))
      << " got " << got.to_string() << "\nwant " << want.to_string();

  const std::size_t end_at = full.sender_stream.size() - 1;
  for (std::size_t cut = 0; cut <= end_at; ++cut) {
    RotatingVector c = client;
    RotatingVector s = server;
    const Outcome o = run_in_memory(c, s, SessionKind::kSyncS, pull, stop_and_wait, own,
                                    server_own, cut);
    ASSERT_FALSE(o.finished) << "cut at byte " << cut;
    ASSERT_EQ(o.receiver_commits, 0) << "cut at byte " << cut;
    ASSERT_TRUE(c.identical_to(client)) << "cut at byte " << cut << ": " << c.to_string();
    ASSERT_TRUE(s.identical_to(server)) << "cut at byte " << cut << ": " << s.to_string();
  }
  // The same sweep's end point: the END byte delivered commits exactly once.
  RotatingVector c = client;
  RotatingVector s = server;
  const Outcome o = run_in_memory(c, s, SessionKind::kSyncS, pull, stop_and_wait, own,
                                  server_own, end_at + 1);
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.receiver_commits, 1);
  EXPECT_TRUE((pull ? c : s).identical_to(got));
}

TEST(SessionEngine, ByteCutPushNeverCommitsBeforeEnd) {
  sweep_cuts(/*pull=*/false, /*stop_and_wait=*/true);
  sweep_cuts(/*pull=*/false, /*stop_and_wait=*/false);
}

TEST(SessionEngine, ByteCutPullNeverCommitsBeforeEnd) {
  sweep_cuts(/*pull=*/true, /*stop_and_wait=*/true);
  sweep_cuts(/*pull=*/true, /*stop_and_wait=*/false);
}

}  // namespace
}  // namespace optrep::net
