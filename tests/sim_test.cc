#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/completion.h"
#include "sim/event_queue.h"
#include "sim/resource.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace postblock::sim {
namespace {

// --- EventQueue --------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Push(42, [] {});
  q.Push(7, [] {});
  EXPECT_EQ(q.NextTime(), 7u);
}

// --- Simulator ---------------------------------------------------------

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.Schedule(100, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, NestedSchedulingUsesCurrentTime) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(50, [&] {
    sim.Schedule(25, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, 75u);
}

TEST(SimulatorTest, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ScheduleAfterRunUntilKeepsEarlierTimestamps) {
  // Regression: RunUntil's deadline check must not commit the event
  // queue to a pending far-future event. Work scheduled after RunUntil
  // returns, earlier than that event, runs first at its own timestamp
  // (the pattern storage-manager crash tests use: stop short of a
  // pending program completion, then schedule recovery work).
  Simulator sim;
  std::vector<SimTime> fired_at;
  sim.Schedule(1000, [&] { fired_at.push_back(sim.Now()); });
  sim.RunUntil(10);
  EXPECT_EQ(sim.Now(), 10u);
  sim.ScheduleAt(100, [&] { fired_at.push_back(sim.Now()); });
  EXPECT_EQ(sim.schedule_clamped(), 0u);
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{100, 1000}));
}

TEST(SimulatorTest, RunUntilPredicateStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<SimTime>(i * 10), [&] { ++fired; });
  }
  const bool satisfied =
      sim.RunUntilPredicate([&] { return fired == 3; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, RunUntilPredicateFalseWhenQueueDrains) {
  Simulator sim;
  sim.Schedule(10, [] {});
  EXPECT_FALSE(sim.RunUntilPredicate([] { return false; }));
}

// Scheduling at an absolute timestamp already in the past is a latent
// time bug. Debug builds assert; release builds clamp to Now() and
// count the incident in the sim.schedule_clamped stat.
#ifdef NDEBUG
TEST(SimulatorTest, ScheduleAtClampsPastTimesAndCountsThem) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  EXPECT_EQ(sim.schedule_clamped(), 0u);
  SimTime seen = 0;
  sim.ScheduleAt(10, [&] { seen = sim.Now(); });  // in the past
  EXPECT_EQ(sim.schedule_clamped(), 1u);
  sim.Run();
  EXPECT_EQ(seen, 100u);
}
#else
TEST(SimulatorDeathTest, ScheduleAtInThePastAsserts) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(10, [] {}), "timestamp in the past");
}
#endif

TEST(SimulatorTest, ScheduleAtPresentOrFutureDoesNotCountClamps) {
  Simulator sim;
  sim.Schedule(50, [] {});
  sim.Run();
  SimTime seen = 0;
  sim.ScheduleAt(sim.Now(), [&] { seen = sim.Now(); });  // exactly now: ok
  sim.ScheduleAt(200, [] {});
  sim.Run();
  EXPECT_EQ(seen, 50u);
  EXPECT_EQ(sim.Now(), 200u);
  EXPECT_EQ(sim.schedule_clamped(), 0u);
}

TEST(SimulatorTest, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(1, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// --- Resource ----------------------------------------------------------

TEST(ResourceTest, GrantsImmediatelyWhenFree) {
  Simulator sim;
  Resource r(&sim, "r");
  bool granted = false;
  r.Acquire([&] { granted = true; });
  EXPECT_TRUE(granted);  // synchronous grant
  EXPECT_EQ(r.in_use(), 1);
}

TEST(ResourceTest, QueuesWhenBusyAndGrantsFcfs) {
  Simulator sim;
  Resource r(&sim, "r");
  std::vector<int> order;
  r.Acquire([&] { order.push_back(0); });
  r.Acquire([&] { order.push_back(1); });
  r.Acquire([&] { order.push_back(2); });
  EXPECT_EQ(r.queue_length(), 2u);
  r.Release();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  r.Release();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ResourceTest, CapacityAllowsConcurrency) {
  Simulator sim;
  Resource r(&sim, "r", 3);
  int granted = 0;
  for (int i = 0; i < 5; ++i) r.Acquire([&] { ++granted; });
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(r.queue_length(), 2u);
}

TEST(ResourceTest, UseForSerializesDurations) {
  Simulator sim;
  Resource r(&sim, "r");
  std::vector<SimTime> done_at;
  for (int i = 0; i < 3; ++i) {
    r.UseFor(100, [&] { done_at.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], 100u);
  EXPECT_EQ(done_at[1], 200u);
  EXPECT_EQ(done_at[2], 300u);
}

TEST(ResourceTest, UtilizationTracksBusyFraction) {
  Simulator sim;
  Resource r(&sim, "r");
  r.UseFor(100, [] {});
  sim.Run();
  // Busy 100ns out of 100ns elapsed.
  EXPECT_NEAR(r.Utilization(), 1.0, 1e-9);
  sim.Schedule(100, [] {});
  sim.Run();
  EXPECT_NEAR(r.Utilization(), 0.5, 1e-9);
}

TEST(ResourceTest, SameTimestampReleasesInterleaveWithOtherEvents) {
  // Two holders of a capacity-2 resource release at the same timestamp
  // with an unrelated event scheduled between the two releases. Each
  // release schedules its own grant event, so the grants interleave
  // with the unrelated event in schedule order — the second grant must
  // not be batched into the first release's event and jump ahead.
  Simulator sim;
  Resource r(&sim, "r", 2);
  r.Acquire([] {});
  r.Acquire([] {});
  std::vector<std::string> order;
  r.Acquire([&] { order.push_back("grant1"); });
  r.Acquire([&] { order.push_back("grant2"); });
  sim.Schedule(10, [&] {
    r.Release();
    sim.Schedule(0, [&] { order.push_back("unrelated"); });
    r.Release();
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"grant1", "unrelated",
                                             "grant2"}));
}

TEST(ResourceTest, LongGrantChainsDoNotOverflowStack) {
  Simulator sim;
  Resource r(&sim, "r");
  int done = 0;
  for (int i = 0; i < 100000; ++i) {
    r.UseFor(1, [&] { ++done; });
  }
  sim.Run();
  EXPECT_EQ(done, 100000);
}

// --- Ring --------------------------------------------------------------

TEST(RingTest, EraseKeepsOrderAcrossTheWrap) {
  Ring<int> ring;
  for (int v = 0; v < 6; ++v) ring.push_back(v);
  for (int v = 0; v < 4; ++v) EXPECT_EQ(ring.pop_front(), v);
  for (int v = 6; v < 12; ++v) ring.push_back(v);  // wraps the 8 slots
  ASSERT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring[0], 4);
  EXPECT_EQ(ring[7], 11);
  EXPECT_EQ(ring.erase(5), 9);  // from the middle, across the wrap
  EXPECT_EQ(ring.erase(0), 4);  // the front
  const std::vector<int> want = {5, 6, 7, 8, 10, 11};
  ASSERT_EQ(ring.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(ring[i], want[i]);
  ring.push_back(12);
  EXPECT_EQ(ring[6], 12);
}

// --- Completion --------------------------------------------------------

TEST(CompletionTest, WaitForRunsUntilDone) {
  Simulator sim;
  Completion c;
  sim.Schedule(500, [&] { c.Complete(&sim, Status::Ok()); });
  EXPECT_TRUE(WaitFor(&sim, c));
  EXPECT_TRUE(c.done());
  EXPECT_TRUE(c.status().ok());
  EXPECT_EQ(c.completed_at(), 500u);
}

TEST(CompletionTest, WaitForFailsIfNeverCompleted) {
  Simulator sim;
  Completion c;
  sim.Schedule(10, [] {});
  EXPECT_FALSE(WaitFor(&sim, c));
}

TEST(CompletionTest, AsCallbackCarriesStatus) {
  Simulator sim;
  Completion c;
  auto cb = c.AsCallback(&sim);
  sim.Schedule(5, [cb] { cb(Status::DataLoss("x")); });
  EXPECT_TRUE(WaitFor(&sim, c));
  EXPECT_TRUE(c.status().IsDataLoss());
}

}  // namespace
}  // namespace postblock::sim
