// ShardedEngine: conservative-lookahead sharded event cores.
//
// The load-bearing property is byte-identical committed schedules at
// every worker count (including the workers=0 sequential reference) —
// held here by exact-timestamp checks, merge-order checks, and a
// randomized cross-thread determinism property test that compares
// schedule fingerprints across 1/2/4/8 workers and run-twice repeats.
// The lookahead contract itself must hold in every build type: a death
// test breaks it on purpose.

#include "sim/sharded_engine.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"

namespace postblock::sim {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = v ^ (h + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 31);
}

TEST(MinPendingTimeTest, PureReadDoesNotCommitWheel) {
  Simulator sim;
  sim.Schedule(5, [] {});
  sim.Schedule(70, [] {});                  // next level-0 block
  sim.Schedule(1'000'000'000, [] {});       // deep wheel level
  EXPECT_EQ(sim.MinPendingTime(), 5u);
  // A probe must not drag the push clamp forward: an event scheduled
  // below the probed minimum keeps its exact timestamp and fires first.
  std::vector<SimTime> fired;
  sim.ScheduleAt(3, [&] { fired.push_back(sim.Now()); });
  EXPECT_EQ(sim.MinPendingTime(), 3u);
  sim.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
}

TEST(MinPendingTimeTest, OverflowAndCoarseLevels) {
  Simulator sim;
  const SimTime far = SimTime{90} * 1000 * 1000 * 1000;  // past horizon
  sim.Schedule(far, [] {});
  EXPECT_EQ(sim.MinPendingTime(), far);
  sim.Schedule(4096 + 17, [] {});  // level >= 1: slot-scan path
  EXPECT_EQ(sim.MinPendingTime(), 4096u + 17u);
}

TEST(ShardedEngineTest, SingleShardMatchesPlainSimulator) {
  // One shard, workers=0: the engine must execute the exact schedule a
  // plain Simulator would — same event count, same final time, same
  // schedule fingerprint.
  const auto drive = [](Simulator* sim) {
    for (int k = 0; k < 4; ++k) {
      auto chain = std::make_shared<std::function<void(int)>>();
      *chain = [sim, chain, k](int left) {
        if (left == 0) {
          *chain = nullptr;
          return;
        }
        sim->Schedule(10 + k, [chain, left] { (*chain)(left - 1); });
      };
      sim->Schedule(k, [chain] { (*chain)(50); });
    }
  };

  Simulator plain;
  plain.EnableFingerprint();
  drive(&plain);
  const SimTime plain_end = plain.Run();

  ShardedConfig config;
  config.shards = 1;
  config.workers = 0;
  config.lookahead = 7;  // odd window width: boundaries hit mid-chain
  ShardedEngine engine(config);
  drive(engine.shard(0));
  engine.Run();

  EXPECT_EQ(engine.shard(0)->events_executed(), plain.events_executed());
  // The executed schedule is identical (the fingerprint folds every
  // event's timestamp); the final clock parks at the committed window
  // boundary, at most lookahead-1 past the last event.
  EXPECT_EQ(engine.shard(0)->fingerprint(), plain.fingerprint());
  EXPECT_GE(engine.shard(0)->Now(), plain_end);
  EXPECT_LT(engine.shard(0)->Now(), plain_end + config.lookahead);
}

TEST(ShardedEngineTest, CrossShardMergeOrdersByTimestampShardSeq) {
  ShardedConfig config;
  config.shards = 4;
  config.workers = 0;
  config.lookahead = 100;
  ShardedEngine engine(config);

  std::vector<std::uint32_t> arrivals;
  // Setup posts in scrambled sender order, all to shard 3 at the same
  // timestamp; the deterministic merge must deliver by (when, from,
  // seq), so execution order is sender 0, 1, 1, 2 (seq breaks the tie
  // between shard 1's two messages in post order).
  engine.Post(2, 3, 500, [&] { arrivals.push_back(2); });
  engine.Post(1, 3, 500, [&] { arrivals.push_back(10); });
  engine.Post(0, 3, 500, [&] { arrivals.push_back(0); });
  engine.Post(1, 3, 500, [&] { arrivals.push_back(11); });
  engine.Run();

  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0], 0u);
  EXPECT_EQ(arrivals[1], 10u);
  EXPECT_EQ(arrivals[2], 11u);
  EXPECT_EQ(arrivals[3], 2u);
}

TEST(ShardedEngineTest, MessagesKeepExactTimestamps) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 50;
  ShardedEngine engine(config);

  std::vector<SimTime> at;
  // Shard 1 holds a far-future local event; the cross-shard message
  // must still fire at its exact timestamp, not get clamped onto the
  // far event (the MinPendingTime / bounded-peek contract).
  engine.shard(1)->Schedule(100'000, [&] {
    at.push_back(engine.shard(1)->Now());
  });
  engine.shard(0)->Schedule(100, [&, this_engine = &engine] {
    this_engine->Post(0, 1, 100 + 50 + 3, [&, this_engine] {
      at.push_back(this_engine->shard(1)->Now());
    });
  });
  engine.Run();

  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 153u);
  EXPECT_EQ(at[1], 100'000u);
}

TEST(ShardedEngineTest, RunUntilLeavesLaterWorkQueued) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 10;
  ShardedEngine engine(config);

  int early = 0;
  int late = 0;
  engine.shard(0)->Schedule(50, [&] { ++early; });
  engine.shard(1)->Schedule(900, [&] { ++late; });
  engine.RunUntil(100);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(engine.Now(), 100u);
  EXPECT_EQ(engine.shard(1)->Now(), 100u);
  engine.Run();
  EXPECT_EQ(late, 1);
}

// --- The randomized cross-thread determinism property ------------------

/// A random sharded workload: each shard runs a self-rescheduling chain
/// with per-shard-domain random deltas; a quarter of events post a
/// payload to a random other shard at now + lookahead + delta. Every
/// observable (per-shard execution hash, payload fold, event counts,
/// rendezvous rounds, messages delivered) is folded into one digest
/// alongside the engine fingerprints.
std::uint64_t RunRandomWorld(std::uint32_t workers, std::uint64_t seed) {
  constexpr std::uint32_t kShards = 5;
  constexpr SimTime kLookahead = 64;

  ShardedConfig config;
  config.shards = kShards;
  config.workers = workers;
  config.lookahead = kLookahead;
  ShardedEngine engine(config);

  struct ShardWorld {
    Rng rng{0};
    std::uint64_t hash = 0;
    std::uint64_t executed = 0;
  };
  // Shards only ever touch their own slot, and each slot's stream is
  // seeded from (seed, shard) alone: no shard's draws depend on how
  // much another shard drew, or on which worker got there first.
  std::vector<ShardWorld> worlds(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    worlds[s].rng = Rng(Fold(seed, s));
  }

  struct Chain {
    ShardedEngine* engine;
    std::vector<ShardWorld>* worlds;
    std::uint32_t shard;
    int left;

    void operator()() const {
      ShardWorld& w = (*worlds)[shard];
      Simulator* sim = engine->shard(shard);
      w.hash = Fold(w.hash, sim->Now());
      ++w.executed;
      if (left == 0) return;
      const std::uint64_t draw = w.rng.Next();
      const SimTime delta = 1 + (draw & 0x3f);
      if ((draw >> 8 & 3) == 0) {
        // Cross-shard hop: the chain continues on another shard.
        const auto to = static_cast<std::uint32_t>(
            (draw >> 16) % engine->num_shards());
        engine->Post(shard, to, sim->Now() + kLookahead + delta,
                     Chain{engine, worlds, to, left - 1});
      } else {
        sim->Schedule(delta, Chain{engine, worlds, shard, left - 1});
      }
    }
  };

  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (int c = 0; c < 6; ++c) {
      engine.shard(s)->Schedule(s + c, Chain{&engine, &worlds, s, 120});
    }
  }
  engine.Run();

  std::uint64_t digest = engine.Fingerprint();
  for (const ShardWorld& w : worlds) {
    digest = Fold(digest, w.hash);
    digest = Fold(digest, w.executed);
  }
  digest = Fold(digest, engine.events_executed());
  digest = Fold(digest, engine.Now());
  digest = Fold(digest, engine.rounds());
  digest = Fold(digest, engine.messages_delivered());
  return digest;
}

TEST(ShardedDeterminismTest, IdenticalScheduleAtEveryWorkerCount) {
  for (const std::uint64_t seed : {1ull, 0xdecafbadull}) {
    const std::uint64_t reference = RunRandomWorld(/*workers=*/0, seed);
    for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(RunRandomWorld(workers, seed), reference)
          << "workers=" << workers << " seed=" << seed
          << " diverged from the sequential reference";
    }
  }
}

TEST(ShardedDeterminismTest, RunTwiceBitIdenticalPerWorkerCount) {
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(RunRandomWorld(workers, 77), RunRandomWorld(workers, 77))
        << "workers=" << workers << " not reproducible across runs";
  }
}

// A Post that would land inside the running window breaks the
// conservative-lookahead contract. The check is a PB_CHECK, not an
// assert, so it aborts with its message in Release builds too.
TEST(ShardedEngineDeathTest, PostInsideLookaheadAborts) {
  EXPECT_DEATH(
      {
        ShardedConfig config;
        config.shards = 2;
        config.workers = 0;
        config.lookahead = 100;
        ShardedEngine engine(config);
        engine.shard(0)->Schedule(10, [&engine] {
          engine.Post(0, 1, engine.shard(0)->Now() + 99, [] {});
        });
        engine.Run();
      },
      "message lands inside the lookahead window");
}

TEST(ShardedEngineTest, SeamTrafficObservability) {
  ShardedConfig config;
  config.shards = 2;
  config.workers = 0;
  config.lookahead = 10;
  ShardedEngine engine(config);
  engine.Post(0, 1, 5, [] {});
  engine.shard(0)->Schedule(3, [&] {
    engine.Post(0, 1, engine.shard(0)->Now() + 10, [] {});
  });
  engine.Run();
  EXPECT_EQ(engine.messages_delivered(), 2u);
  EXPECT_GE(engine.rounds(), 1u);
  EXPECT_EQ(engine.events_executed(), 3u);
}

}  // namespace
}  // namespace postblock::sim
