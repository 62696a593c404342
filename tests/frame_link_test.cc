// sim::FrameLink: frame coalescing must keep per-message link timing exactly,
// flush on budget / control / direction turn, and let cancel_tail revoke only
// the speculative not-yet-transmitting tail.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/frame_link.h"

namespace optrep::sim {
namespace {

struct FMsg {
  int id{0};
  bool control{false};
};

// Regression for the moved-link dangling-handler bug: delivery closures
// capture the link's address, so links are pinned in place.
static_assert(!std::is_copy_constructible_v<FrameLink<FMsg>>);
static_assert(!std::is_move_constructible_v<FrameLink<FMsg>>);

NetConfig finite_net(std::uint32_t budget) {
  NetConfig net;
  net.latency_s = 0.25;
  net.bandwidth_bits_per_s = 100.0;
  net.frame_budget = budget;
  return net;
}

TEST(FrameLink, BudgetZeroMatchesLinkTimingAndEvents) {
  EventLoop loop;
  FrameLink<FMsg> flink(&loop, finite_net(0));
  std::vector<std::pair<Time, int>> got;
  flink.set_receiver([&](const FMsg& m) { got.emplace_back(loop.now(), m.id); });
  loop.schedule(0.0, [&] {
    for (int i = 0; i < 5; ++i) flink.send(FMsg{i}, 100, 13);
  });
  loop.run();

  // Message i transmits [i, i+1) at 100 bits / 100 bit/s and arrives 0.25 s
  // after its last bit, each in its own delivery event.
  const std::vector<std::pair<Time, int>> want = {
      {1.25, 0}, {2.25, 1}, {3.25, 2}, {4.25, 3}, {5.25, 4}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(loop.executed_events(), 1u + 5u);  // the send event + one per message
  EXPECT_EQ(flink.stats().frames, 5u);         // every message its own frame
  EXPECT_EQ(flink.stats().framed_wire_bytes, 5u * 13u);
  EXPECT_EQ(flink.stats().wire_bytes, 5u * 13u);
}

TEST(FrameLink, FramedDeliveryKeepsPerMessageTimes) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(8));
  std::vector<std::pair<Time, int>> got;
  link.set_receiver([&](const FMsg& m) { got.emplace_back(loop.now(), m.id); });
  loop.schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) link.send(FMsg{i}, 100, 13);
  });
  loop.run();
  link.close_frame();

  // Message i transmits [i, i+1) at 100 bits / 100 bit/s, arrives at i+1.25.
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(got[i].first, i + 1.25);
    EXPECT_EQ(got[i].second, i);
  }
  // One send burst + one coalesced delivery walk.
  EXPECT_EQ(loop.executed_events(), 2u);
  EXPECT_EQ(link.stats().frames, 1u);
  EXPECT_EQ(link.stats().messages, 4u);
}

TEST(FrameLink, BudgetClosesFrames) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(2));
  link.set_receiver([](const FMsg&) {});
  loop.schedule(0.0, [&] {
    for (int i = 0; i < 5; ++i) link.send(FMsg{i}, 100, 13);
  });
  loop.run();
  link.close_frame();
  EXPECT_EQ(link.stats().frames, 3u);  // 2 + 2 + 1
}

TEST(FrameLink, FlushAfterControlMessageClosesFrame) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(100));
  link.set_receiver([](const FMsg&) {});
  link.set_flush_after([](const FMsg& m) { return m.control; });
  loop.schedule(0.0, [&] {
    link.send(FMsg{0}, 100, 13);
    link.send(FMsg{1}, 100, 13);
    link.send(FMsg{2, /*control=*/true}, 10, 1);
    link.send(FMsg{3}, 100, 13);
  });
  loop.run();
  link.close_frame();
  EXPECT_EQ(link.stats().frames, 2u);  // {0,1,control} then {3}
}

TEST(FrameLink, DirectionTurnClosesPeerFrame) {
  EventLoop loop;
  FrameDuplex<FMsg> duplex(&loop, finite_net(100));
  duplex.a_to_b().set_receiver([&](const FMsg&) { duplex.b_to_a().send(FMsg{99}, 10, 1); });
  duplex.b_to_a().set_receiver([](const FMsg&) {});
  loop.schedule(0.0, [&] {
    duplex.a_to_b().send(FMsg{0}, 100, 13);
    duplex.a_to_b().send(FMsg{1}, 100, 13);
  });
  loop.run();
  duplex.a_to_b().close_frame();
  duplex.b_to_a().close_frame();
  // The reply closed a→b's open frame; both directions hold one frame.
  EXPECT_EQ(duplex.a_to_b().stats().frames, 1u);
  EXPECT_EQ(duplex.b_to_a().stats().frames, 1u);
}

TEST(FrameLink, FrameSizerPricesWholeFrames) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(10));
  link.set_receiver([](const FMsg&) {});
  // A frame of k messages costs 5 + k bytes (amortized header).
  link.set_frame_sizer([](const std::vector<FMsg>& msgs) {
    return std::uint64_t{5} + msgs.size();
  });
  loop.schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) link.send(FMsg{i}, 100, 13);
  });
  loop.run();
  link.close_frame();
  EXPECT_EQ(link.stats().frames, 1u);
  EXPECT_EQ(link.stats().framed_wire_bytes, 8u);
  EXPECT_EQ(link.stats().wire_bytes, 39u);  // per-message accounting untouched
}

TEST(FrameLink, CancelTailRevokesOnlyFutureSpeculativeSends) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(10));
  std::vector<int> delivered;
  link.set_receiver([&](const FMsg& m) { delivered.push_back(m.id); });
  std::vector<int> revoked;
  loop.schedule(0.0, [&] {
    link.send(FMsg{0}, 100, 13, /*revocable=*/false);  // transmits [0,1)
    link.send(FMsg{1}, 100, 13, /*revocable=*/true);   // transmits [1,2)
    link.send(FMsg{2}, 100, 13, /*revocable=*/true);   // transmits [2,3)
    link.send(FMsg{3}, 100, 13, /*revocable=*/true);   // transmits [3,4)
  });
  // At t=2 message 2 has started transmitting (start == 2 is committed: its
  // first bit leaves exactly now); only message 3 is still revocable.
  loop.schedule(2.0, [&] {
    link.peek_tail([&](const FMsg& m) { revoked.push_back(m.id + 100); });  // dry run
    const std::size_t n = link.cancel_tail([&](const FMsg& m) { revoked.push_back(m.id); });
    EXPECT_EQ(n, 1u);
    EXPECT_DOUBLE_EQ(link.free_at(), 3.0);  // rolled back to msg 2's finish
  });
  loop.run();
  link.close_frame();
  EXPECT_EQ(revoked, (std::vector<int>{103, 3}));
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(link.stats().messages, 3u);
  EXPECT_EQ(link.stats().model_bits, 300u);
  EXPECT_EQ(link.stats().wire_bytes, 39u);
}

TEST(FrameLink, LinkReusableAfterTailRevocation) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(10));
  std::vector<int> delivered;
  link.set_receiver([&](const FMsg& m) { delivered.push_back(m.id); });
  loop.schedule(0.0, [&] {
    link.send(FMsg{0}, 100, 13, /*revocable=*/false);  // [0,1), arrives 1.25
    link.send(FMsg{1}, 100, 13, /*revocable=*/true);   // [1,2), arrives 2.25
  });
  loop.schedule(0.5, [&] {
    EXPECT_EQ(link.cancel_tail([](const FMsg&) {}), 1u);
    EXPECT_DOUBLE_EQ(link.free_at(), 1.0);  // back to msg 0's finish
    // A replacement send reuses the freed slot immediately.
    link.send(FMsg{7}, 100, 13);  // starts at 1.0, arrives 2.25
  });
  loop.run();
  EXPECT_EQ(delivered, (std::vector<int>{0, 7}));
  EXPECT_EQ(link.stats().messages, 2u);
}

TEST(FrameLink, TapSeesSpeculativeSendsOnlyOnceDelivered) {
  EventLoop loop;
  FrameLink<FMsg> link(&loop, finite_net(10));
  link.set_receiver([](const FMsg&) {});
  std::vector<std::pair<Time, int>> tapped;
  link.set_tap([&](Time t, const FMsg& m, std::uint64_t) { tapped.emplace_back(t, m.id); });
  loop.schedule(0.0, [&] {
    link.send(FMsg{0}, 100, 13, /*revocable=*/false);
    link.send(FMsg{1}, 100, 13, /*revocable=*/true);
    link.send(FMsg{2}, 100, 13, /*revocable=*/true);
  });
  loop.schedule(1.5, [&] { link.cancel_tail([](const FMsg&) {}); });  // revokes msg 2
  loop.run();
  ASSERT_EQ(tapped.size(), 2u);  // the revoked message never appears
  EXPECT_EQ(tapped[0], (std::pair<Time, int>{0.0, 0}));  // tapped at hand-off
  EXPECT_EQ(tapped[1], (std::pair<Time, int>{1.0, 1}));  // stamped with its start
}

}  // namespace
}  // namespace optrep::sim
