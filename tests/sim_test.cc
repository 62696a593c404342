#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/frame_link.h"

namespace optrep::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(3.0, [&] { order.push_back(3); });
  loop.schedule(1.0, [&] { order.push_back(1); });
  loop.schedule(2.0, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, SimultaneousEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) loop.schedule(1.0, [&order, i] { order.push_back(i); });
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, CancelledEventDoesNotRun) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.schedule(1.0, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CountsExecutedCancelledAndQueueDepth) {
  EventLoop loop;
  EXPECT_EQ(loop.executed_events(), 0u);
  EXPECT_EQ(loop.max_queue_depth(), 0u);
  const auto id = loop.schedule(1.0, [] {});
  loop.schedule(2.0, [] {});
  loop.schedule(3.0, [] {});
  EXPECT_EQ(loop.queue_depth(), 3u);
  EXPECT_EQ(loop.max_queue_depth(), 3u);
  loop.cancel(id);
  EXPECT_EQ(loop.cancelled_events(), 1u);
  loop.run();
  // The cancelled event was skipped, the other two executed.
  EXPECT_EQ(loop.executed_events(), 2u);
  EXPECT_EQ(loop.queue_depth(), 0u);
  EXPECT_EQ(loop.max_queue_depth(), 3u);  // high-water mark survives the drain
}

TEST(EventLoop, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.schedule_after(1.0, tick);
  };
  loop.schedule(0.0, tick);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(loop.now(), 4.0);
}

struct TestMsg {
  int id{0};
};

TEST(Link, LatencyOnlyDelivery) {
  EventLoop loop;
  FrameLink<TestMsg> link(&loop, NetConfig{.latency_s = 0.5});
  std::vector<std::pair<Time, int>> got;
  link.set_receiver([&](const TestMsg& m) { got.emplace_back(loop.now(), m.id); });
  loop.schedule(0.0, [&] {
    link.send(TestMsg{1}, 100, 13);
    link.send(TestMsg{2}, 100, 13);
  });
  loop.run();
  ASSERT_EQ(got.size(), 2u);
  // Infinite bandwidth: both arrive after exactly the propagation latency.
  EXPECT_DOUBLE_EQ(got[0].first, 0.5);
  EXPECT_DOUBLE_EQ(got[1].first, 0.5);
  EXPECT_EQ(got[0].second, 1);
  EXPECT_EQ(got[1].second, 2);
}

TEST(Link, BandwidthPacesTransmissions) {
  EventLoop loop;
  // 100 bits/s, 0.1 s latency: a 100-bit message occupies the link for 1 s.
  FrameLink<TestMsg> link(&loop, NetConfig{.latency_s = 0.1, .bandwidth_bits_per_s = 100});
  std::vector<Time> arrivals;
  link.set_receiver([&](const TestMsg&) { arrivals.push_back(loop.now()); });
  loop.schedule(0.0, [&] {
    link.send(TestMsg{1}, 100, 13);
    link.send(TestMsg{2}, 100, 13);  // queued FIFO behind the first
  });
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 1.1);  // 1 s transmit + 0.1 s propagation
  EXPECT_DOUBLE_EQ(arrivals[1], 2.1);
}

TEST(Link, FreeAtReflectsQueue) {
  EventLoop loop;
  FrameLink<TestMsg> link(&loop, NetConfig{.latency_s = 0.0, .bandwidth_bits_per_s = 10});
  link.set_receiver([](const TestMsg&) {});
  loop.schedule(0.0, [&] {
    const Time f1 = link.send(TestMsg{1}, 10, 2);
    EXPECT_DOUBLE_EQ(f1, 1.0);
    const Time f2 = link.send(TestMsg{2}, 20, 4);
    EXPECT_DOUBLE_EQ(f2, 3.0);
  });
  loop.run();
}

TEST(Link, StatsAccumulate) {
  EventLoop loop;
  FrameLink<TestMsg> link(&loop, NetConfig{});
  link.set_receiver([](const TestMsg&) {});
  loop.schedule(0.0, [&] {
    link.send(TestMsg{1}, 10, 2);
    link.send(TestMsg{2}, 30, 5);
  });
  loop.run();
  EXPECT_EQ(link.stats().messages, 2u);
  EXPECT_EQ(link.stats().model_bits, 40u);
  EXPECT_EQ(link.stats().wire_bytes, 7u);
}

TEST(Link, RttIsTwiceLatency) {
  NetConfig cfg{.latency_s = 0.05};
  EXPECT_DOUBLE_EQ(cfg.rtt(), 0.1);
}

TEST(Duplex, IndependentDirections) {
  EventLoop loop;
  FrameDuplex<TestMsg> d(&loop, NetConfig{.latency_s = 1.0});
  int a_got = 0, b_got = 0;
  d.a_to_b().set_receiver([&](const TestMsg&) { ++b_got; });
  d.b_to_a().set_receiver([&](const TestMsg&) { ++a_got; });
  loop.schedule(0.0, [&] {
    d.a_to_b().send(TestMsg{1}, 8, 1);
    d.b_to_a().send(TestMsg{2}, 8, 1);
    d.b_to_a().send(TestMsg{3}, 8, 1);
  });
  loop.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 2);
}

}  // namespace
}  // namespace optrep::sim
