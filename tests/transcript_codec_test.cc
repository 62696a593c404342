// Integration of tap + codec: every message of a live SYNCS session is
// bit-encoded as it crosses the wire; the decoded stream must replay
// identically, and the encoded size must equal the session's reported
// traffic. This pins the claim that SyncReport's "model bits" correspond to
// a real serialization, end to end.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "vv/codec.h"
#include "vv/session.h"

namespace optrep::vv {
namespace {

TEST(TranscriptCodec, SessionStreamsRoundTripAtReportedSize) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    // Random pair of valid replicas.
    constexpr std::uint32_t kSites = 8;
    std::vector<RotatingVector> vec(kSites);
    for (int step = 0; step < 50; ++step) {
      const auto i = static_cast<std::uint32_t>(rng.below(kSites));
      if (rng.chance(0.55)) {
        vec[i].record_update(SiteId{i});
      } else {
        auto j = static_cast<std::uint32_t>(rng.below(kSites));
        if (j == i) continue;
        sim::EventLoop loop;
        auto o = test::ideal(VectorKind::kSrv, kSites);
        const auto rel = compare_fast(vec[i], vec[j]);
        if (rel == Ordering::kBefore || rel == Ordering::kConcurrent) {
          sync_rotating(loop, vec[i], vec[j], o);
          if (rel == Ordering::kConcurrent) vec[i].record_update(SiteId{i});
        }
      }
    }
    const auto a0 = rng.below(kSites);
    auto b0 = rng.below(kSites);
    if (b0 == a0) b0 = (b0 + 1) % kSites;
    RotatingVector a = vec[a0];
    const RotatingVector& b = vec[b0];
    const auto rel = compare_fast(a, b);
    if (rel == Ordering::kEqual || rel == Ordering::kAfter) continue;

    // Tap + encode every message in both directions.
    auto opt = test::ideal(VectorKind::kSrv, kSites);
    opt.known_relation = rel;
    BitWriter fwd_bits, rev_bits;
    std::vector<VvMsg> fwd_msgs, rev_msgs;
    opt.add_tap([&](bool forward, const VvMsg& m) {
      if (m.kind == VvMsg::Kind::kAck) return;  // free in ideal mode
      if (forward) {
        encode_msg(fwd_bits, opt.cost, opt.kind, Direction::kForward, m);
        fwd_msgs.push_back(m);
      } else {
        encode_msg(rev_bits, opt.cost, opt.kind, Direction::kReverse, m);
        rev_msgs.push_back(m);
      }
    });
    sim::EventLoop loop;
    const auto rep = sync_skip(loop, a, b, opt);

    // Encoded size equals the session's reported model bits.
    ASSERT_EQ(fwd_bits.bit_size(), rep.fwd.model_bits) << "trial " << trial;
    ASSERT_EQ(rev_bits.bit_size(), rep.rev.model_bits) << "trial " << trial;

    // The streams decode back to the identical message sequences.
    BitReader fr(fwd_bits.bytes());
    for (const VvMsg& want : fwd_msgs) {
      const VvMsg got = decode_msg(fr, opt.cost, opt.kind, Direction::kForward);
      ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
      if (want.kind == VvMsg::Kind::kElem) {
        ASSERT_EQ(got.site, want.site);
        ASSERT_EQ(got.value, want.value);
        ASSERT_EQ(got.conflict, want.conflict);
        ASSERT_EQ(got.segment, want.segment);
      }
    }
    ASSERT_EQ(fr.bits_read(), fwd_bits.bit_size());
    BitReader rr(rev_bits.bytes());
    for (const VvMsg& want : rev_msgs) {
      const VvMsg got = decode_msg(rr, opt.cost, opt.kind, Direction::kReverse);
      ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
      if (want.kind == VvMsg::Kind::kSkip) {
        ASSERT_EQ(got.arg, want.arg);
      }
    }
  }
}

}  // namespace
}  // namespace optrep::vv
