// Property test: the timing-wheel EventQueue must pop the exact (time,
// insertion-order) sequence of the original binary-heap implementation,
// kept as ReferenceEventQueue. This is the determinism contract the
// whole repo leans on — every bench's final Now() and stats are only
// reproducible if the event core's tie-breaks never change.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/reference_event_queue.h"

namespace postblock::sim {
namespace {

// The wheel's coverage: draws past it must reach the overflow list.
constexpr SimTime kHorizon = EventQueue::kHorizon;

struct PopRecord {
  SimTime when;
  std::uint64_t id;
  bool operator==(const PopRecord&) const = default;
};

/// Delay mixture covering every queue path: heavy same-timestamp ties,
/// short and medium delays across wheel levels, deltas on each level's
/// edges, and a tail (`far_percent` of draws) past the wheel horizon
/// that must go to the overflow list.
SimTime DrawDelay(std::mt19937_64& rng, SimTime now, unsigned far_percent) {
  const auto pick = rng() % 100;
  if (pick < far_percent) {  // beyond the horizon: overflow list
    return kHorizon + rng() % (2 * kHorizon);
  }
  switch (pick) {
    case 1:
    case 2:  // coarse levels
      return rng() % (kHorizon / 4);
    case 3: {  // one slot width of a level (or the horizon) +- 1 ns
      const SimTime w = EventQueue::SlotWidth(
          static_cast<int>(rng() % (EventQueue::kLevels + 1)));
      return w - 1 + rng() % 3;
    }
    case 4: {  // the next block boundary of a level +- 1 ns
      const SimTime w = EventQueue::SlotWidth(
          static_cast<int>(rng() % (EventQueue::kLevels + 1)));
      const SimTime edge = (now / w + 1) * w;
      return edge - now - 1 + rng() % 3;
    }
    default: {
      const auto r = rng() % 97;
      if (r < 30) return 0;  // same-timestamp burst
      if (r < 70) return rng() % 256;
      return rng() % 1'000'000;
    }
  }
}

/// Drives both queues through an identical randomized push/pop
/// interleaving and compares the full (when, id) pop sequences. Pops are
/// forced while more than `max_pending` events wait.
void RunInterleaving(std::uint64_t seed, std::uint64_t pushes,
                     std::size_t max_pending = 50'000,
                     unsigned far_percent = 1) {
  std::mt19937_64 rng(seed);
  EventQueue wheel;
  ReferenceEventQueue ref;
  std::vector<PopRecord> wheel_log, ref_log;
  wheel_log.reserve(pushes);
  ref_log.reserve(pushes);

  SimTime now = 0;  // time of the most recently popped event
  std::uint64_t next_id = 0;
  std::uint64_t pushed = 0;

  const auto pop_both = [&] {
    const SimTime tw = wheel.NextTime();
    const SimTime tr = ref.NextTime();
    ASSERT_EQ(tw, tr) << "NextTime diverged after "
                      << wheel_log.size() << " pops";
    now = tw;
    auto wcb = wheel.Pop();
    auto rcb = ref.Pop();
    wcb();
    rcb();
  };

  while (pushed < pushes || !wheel.empty()) {
    if (!wheel.empty() && rng() % 16 == 0) {
      // The sharded engine's non-committing probe: a pure read that
      // must name the reference's earliest timestamp.
      ASSERT_EQ(wheel.MinPendingTime(), ref.NextTime())
          << "MinPendingTime diverged after " << wheel_log.size()
          << " pops";
    }
    if (rng() % 16 == 0) {
      // Deadline-bounded peek, as Simulator::RunUntil issues. Both
      // implementations must agree; on a hit RunUntil pops the event,
      // on a miss it advances the clock to the deadline — mirror both,
      // so later pushes may land *before* the earliest pending event
      // (but at/after the cleared bound) and must still pop at their
      // own timestamps, which the sequence comparison verifies.
      const SimTime bound = now + DrawDelay(rng, now, far_percent);
      const bool due = wheel.HasEventAtOrBefore(bound);
      ASSERT_EQ(due, ref.HasEventAtOrBefore(bound))
          << "bounded peek diverged after " << wheel_log.size()
          << " pops (bound " << bound << ")";
      if (due) {
        ASSERT_NO_FATAL_FAILURE(pop_both());
        continue;
      }
      now = bound;
    }
    const bool can_push = pushed < pushes;
    const bool must_pop = !can_push || wheel.size() > max_pending;
    if (!must_pop && (wheel.empty() || rng() % 3 != 0)) {
      // Timestamps never precede the last popped event, mirroring how
      // Simulator only schedules relative to Now().
      const SimTime when = now + DrawDelay(rng, now, far_percent);
      const std::uint64_t id = next_id++;
      wheel.Push(when, [&wheel_log, when, id] {
        wheel_log.push_back({when, id});
      });
      ref.Push(when, [&ref_log, when, id] {
        ref_log.push_back({when, id});
      });
      ++pushed;
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_both());
    }
  }

  ASSERT_TRUE(ref.empty());
  ASSERT_EQ(wheel_log.size(), pushes);
  ASSERT_EQ(wheel_log, ref_log) << "pop sequences diverged (seed "
                                << seed << ")";
}

TEST(EventQueueDeterminismTest, MillionRandomizedPushesMatchReference) {
  RunInterleaving(/*seed=*/0x5eed'0001, /*pushes=*/1'000'000);
}

TEST(EventQueueDeterminismTest, MoreSeedsSmallerRuns) {
  for (std::uint64_t seed : {42ull, 7ull, 0xdeadbeefull}) {
    RunInterleaving(seed, /*pushes=*/50'000);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDeterminismTest, OverflowHeavyRunMatchesReference) {
  // A short queue of mostly far events: the wheel drains again and
  // again, so overflow pulls interleave with pushes and bounded peeks.
  RunInterleaving(/*seed=*/0x5eed'0002, /*pushes=*/200'000,
                  /*max_pending=*/64, /*far_percent=*/30);
}

TEST(EventQueueDeterminismTest, SameTimestampBurstPopsInPushOrder) {
  EventQueue q;
  std::vector<std::uint64_t> order;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    q.Push(500, [&order, id] { order.push_back(id); });
  }
  while (!q.empty()) {
    EXPECT_EQ(q.NextTime(), 500u);
    q.Pop()();
  }
  for (std::uint64_t id = 0; id < order.size(); ++id) {
    ASSERT_EQ(order[id], id);
  }
}

TEST(EventQueueDeterminismTest, FarFutureEventsKeepPushOrderTies) {
  // Two events past the horizon at the same timestamp, pushed around a
  // near event: overflow handling must preserve push order on the tie.
  EventQueue q;
  std::vector<int> order;
  const SimTime far = 3 * kHorizon + 17;
  q.Push(far, [&order] { order.push_back(1); });
  q.Push(5, [&order] { order.push_back(0); });
  q.Push(far, [&order] { order.push_back(2); });
  while (!q.empty()) q.Pop()();
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueDeterminismTest, CascadedEventPopsBeforeLaterNearPushSameNs) {
  // An event pushed early with a far delay waits at a coarse level (or
  // in the overflow list) and cascades down as the wheel nears it. One
  // pushed later with a near delay at the same ns lands straight in a
  // fine slot — possibly the 1 ns slot the cascade fills. Push order
  // must still win the tie, from every level and at every lead.
  for (int level = 1; level <= EventQueue::kLevels; ++level) {
    const SimTime t = 3 * EventQueue::SlotWidth(level) + 5;
    const SimTime fine = EventQueue::SlotWidth(level - 1);
    for (const SimTime lead : {SimTime{1}, SimTime{2}, fine, fine + 1}) {
      EventQueue q;
      std::vector<int> order;
      q.Push(t, [&order] { order.push_back(0); });  // early, far
      q.Push(t - lead, [&order] { order.push_back(1); });
      EXPECT_EQ(q.NextTime(), t - lead);
      q.Pop()();
      q.Push(t, [&order] { order.push_back(2); });  // late, near
      q.Push(t + 1, [&order] { order.push_back(3); });
      while (!q.empty()) q.Pop()();
      EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}))
          << "level " << level << ", lead " << lead;
    }
  }
}

TEST(EventQueueDeterminismTest, PastPushClampsToLastPoppedTime) {
  EventQueue q;
  SimTime seen = 0;
  q.Push(100, [] {});
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  q.Push(10, [&q, &seen] { seen = q.size(); });  // in the past: clamps
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  EXPECT_EQ(seen, 0u);
}

TEST(EventQueueDeterminismTest, BoundedPeekThenEarlierPushPopsAtOwnTime) {
  // Regression: a deadline peek that misses must not commit the wheel
  // to the far-future pending event — an event pushed afterwards at an
  // earlier timestamp has to pop first, at its own time, not be
  // silently deferred onto the stale event.
  EventQueue q;
  std::vector<SimTime> order;
  q.Push(1000, [&order] { order.push_back(1000); });
  EXPECT_FALSE(q.HasEventAtOrBefore(10));
  q.Push(100, [&order] { order.push_back(100); });
  EXPECT_EQ(q.NextTime(), 100u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), 1000u);
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{100, 1000}));
}

TEST(EventQueueDeterminismTest, BoundedPeekAgainstOverflowEvent) {
  // Same property when the only pending event sits in the overflow map:
  // the miss must not pull the overflow block into the wheel.
  EventQueue q;
  std::vector<SimTime> order;
  const SimTime far = 2 * kHorizon + 5;
  q.Push(far, [&order, far] { order.push_back(far); });
  EXPECT_FALSE(q.HasEventAtOrBefore(1'000'000));
  q.Push(1'000'000, [&order] { order.push_back(1'000'000); });
  EXPECT_EQ(q.NextTime(), 1'000'000u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), far);
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{1'000'000, far}));
}

TEST(EventQueueDeterminismTest, BoundedPeekPartialAdvanceKeepsLaterPushExact) {
  // A miss may legitimately advance the wheel through intermediate slot
  // hops that stay at or below the bound; pushes at/after the bound
  // must still land exactly.
  EventQueue q;
  std::vector<SimTime> order;
  q.Push(970, [&order] { order.push_back(970); });
  EXPECT_FALSE(q.HasEventAtOrBefore(965));  // hops to slot base 960
  q.Push(966, [&order] { order.push_back(966); });
  EXPECT_TRUE(q.HasEventAtOrBefore(966));
  EXPECT_EQ(q.NextTime(), 966u);
  q.Pop()();
  q.Pop()();
  EXPECT_EQ(order, (std::vector<SimTime>{966, 970}));
}

TEST(EventQueueDeterminismTest, BoundedPeekAcrossLevelBoundary) {
  // The pending event sits just past a level boundary — the first ns of
  // the next level-(L-1) block, which places it a level up (or, past
  // the horizon, in the overflow list). A peek bounded just before the
  // boundary, or on it, must miss and leave a push at the bound exact.
  for (int level = 1; level <= EventQueue::kLevels; ++level) {
    const SimTime edge = EventQueue::SlotWidth(level);
    for (const SimTime bound : {edge - 1, edge}) {
      EventQueue q;
      std::vector<SimTime> order;
      const SimTime far = edge + 5;
      q.Push(far, [&order, far] { order.push_back(far); });
      EXPECT_FALSE(q.HasEventAtOrBefore(bound)) << "level " << level;
      EXPECT_EQ(q.MinPendingTime(), far);
      q.Push(bound, [&order, bound] { order.push_back(bound); });
      EXPECT_TRUE(q.HasEventAtOrBefore(bound));
      EXPECT_EQ(q.NextTime(), bound);
      q.Pop()();
      EXPECT_FALSE(q.HasEventAtOrBefore(far - 1));
      EXPECT_TRUE(q.HasEventAtOrBefore(far));
      q.Pop()();
      EXPECT_EQ(order, (std::vector<SimTime>{bound, far}))
          << "level " << level << ", bound " << bound;
    }
  }
}

TEST(EventQueueDeterminismTest, NextTimeIsIdempotent) {
  // NextTime advances internal cursors; repeated calls must still
  // report the same timestamp until the event is popped.
  EventQueue q;
  q.Push(2 * kHorizon + 3, [] {});  // overflow path
  q.Push(4096, [] {});              // coarse level
  EXPECT_EQ(q.NextTime(), 4096u);
  EXPECT_EQ(q.NextTime(), 4096u);
  q.Pop()();
  EXPECT_EQ(q.NextTime(), 2 * kHorizon + 3);
  EXPECT_EQ(q.NextTime(), 2 * kHorizon + 3);
}

}  // namespace
}  // namespace postblock::sim
