#ifndef POSTBLOCK_SIM_SHARDED_ENGINE_H_
#define POSTBLOCK_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/inplace_callback.h"
#include "sim/simulator.h"

namespace postblock::sim {

/// Configuration for a ShardedEngine.
struct ShardedConfig {
  /// Number of shards (independent event loops). Shard ids are
  /// [0, shards). Each shard owns its own Simulator (timing wheel +
  /// clock); events on different shards may only interact through
  /// Post(), never by touching each other's state directly.
  std::uint32_t shards = 1;

  /// Worker threads executing shard windows. 0 = sequential reference
  /// loop (no pool, no atomics — the single-threaded core). W >= 2 uses
  /// the calling thread plus W-1 helpers; workers=1 has no helper and
  /// runs the reference loop. The committed schedule is byte-identical
  /// at every value, including 0.
  std::uint32_t workers = 0;

  /// Conservative-lookahead bound: every Post() issued from an event
  /// executing at time t must target `when >= t + lookahead`. This is
  /// the cross-shard seam's minimum latency (e.g. controller dispatch /
  /// completion-routing delay) and directly sets the rendezvous window
  /// width — shards run ahead `lookahead - 1` ns past the global next
  /// event before they must merge.
  SimTime lookahead = 1000;
};

/// Sharded parallel discrete-event engine: N per-shard event loops with
/// conservative-lookahead synchronization.
///
/// Execution proceeds in rendezvous rounds. At each barrier the engine
/// (single-threaded) (1) delivers all cross-shard messages posted
/// during the previous window — sorted by (timestamp, sender shard,
/// sender sequence), so ties merge identically no matter which worker
/// produced them first — and (2) picks the next window
/// [W, W + lookahead) where W is the global earliest pending timestamp
/// (a non-committing wheel probe). Every shard then runs its local
/// events with timestamp < W + lookahead, in parallel. The lookahead
/// contract (`when >= t + lookahead` for every Post) guarantees any
/// message produced inside the window lands at or after the window
/// end, so delivery at the next barrier never back-dates an event.
///
/// Determinism: window boundaries are a pure function of committed
/// state, shards share nothing inside a window, and the merge order is
/// total — so the committed global schedule is byte-identical at any
/// worker count, including the workers=0 sequential reference. Every
/// shard always fingerprints its executed events; those fingerprints
/// (plus model observables) are the checkable witness, and the
/// sharded_device.determinism gate holds the full ssd::Device at 1/2/4
/// workers to the workers=0 fingerprint.
class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedConfig& config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const ShardedConfig& config() const { return config_; }

  /// The shard's local event loop, for scheduling shard-local work.
  /// Setup code may use it freely before Run(); during execution only
  /// the event currently running on shard `id` may touch it.
  Simulator* shard(std::uint32_t id) { return &shards_[id]->sim; }

  /// Committed global time: every shard has executed all events below
  /// this (the end of the last completed window).
  SimTime Now() const { return committed_; }

  /// Cross-shard event: schedules `f` on shard `to` at absolute time
  /// `when`. Must be called either before Run()/RunUntil() (setup), or
  /// from an event currently executing on shard `from` with
  /// `when >= shard(from)->Now() + lookahead` — checked in every build
  /// (PB_CHECK). Messages are delivered at the next rendezvous, merged
  /// in (when, from, seq) order.
  template <typename F>
  void Post(std::uint32_t from, std::uint32_t to, SimTime when, F&& f) {
    PB_CHECK(from < num_shards() && to < num_shards(),
             "Post: shard id out of range");
    Shard& src = *shards_[from];
    PB_CHECK(!running_ || when >= src.sim.Now() + config_.lookahead,
             "Post: message lands inside the lookahead window");
    src.outbox.push_back(
        Message{when, from, to, src.next_msg_seq++, std::forward<F>(f)});
  }

  /// Runs rounds until every shard drains and no message is in flight.
  /// Returns the final committed time (max shard Now()).
  SimTime Run();

  /// Runs rounds covering timestamps <= deadline; later work stays
  /// queued. All shard clocks (and Now()) advance to `deadline`.
  SimTime RunUntil(SimTime deadline);

  /// Events executed across all shards.
  std::uint64_t events_executed() const;
  /// Combined committed-schedule fingerprint: per-shard Simulator
  /// fingerprints folded in shard order (worker-count invariant).
  std::uint64_t Fingerprint() const;
  /// Barrier rendezvous count (rounds) and cross-shard message count —
  /// the seam-traffic observability bench_sharded_device reports.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  /// Sentinel "no pending event" timestamp.
  static constexpr SimTime kNoEvent = ~SimTime{0};

  struct Message {
    SimTime when;
    std::uint32_t from;
    std::uint32_t to;
    std::uint64_t seq;  // per-sender counter: the deterministic tiebreak
    InplaceCallback cb;
  };

  /// One shard: its Simulator plus the outbox its events append
  /// cross-shard messages to. Only the worker running the shard's
  /// window touches it between barriers; the coordinator only between
  /// windows. Padded so neighbouring shards never share a cache line.
  struct alignas(64) Shard {
    Simulator sim;
    std::vector<Message> outbox;
    std::uint64_t next_msg_seq = 0;
  };

  /// Delivers all pending outbox messages in merge order.
  /// Coordinator-only (between windows).
  void DeliverMessages();
  /// Earliest pending timestamp across shards, or kNoEvent when idle.
  SimTime GlobalMinPending() const;
  /// Runs one window (every event with timestamp <= window_end) on
  /// every shard, using the worker pool when configured.
  void RunWindow(SimTime window_end);
  /// Runs this worker's shards up to window_end: shard s belongs to
  /// worker s % workers, and without a pool worker 0 runs them all.
  void RunShardRange(std::uint32_t worker_id, SimTime window_end);

  // --- Worker pool -----------------------------------------------------
  // Generation barrier on C++20 atomic wait/notify with a short spin
  // prefix: the coordinator publishes (window_end, generation), each
  // helper runs its static share of shards (shard s belongs to worker
  // s % workers), then acks. Static assignment keeps a shard's window
  // on one thread for cache locality; determinism never depends on it.
  void StartPool();
  void StopPool();
  void WorkerLoop(std::uint32_t worker_id);

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SimTime committed_ = 0;
  bool running_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_delivered_ = 0;

  std::vector<std::thread> pool_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint32_t> acks_{0};
  std::atomic<bool> stop_{false};
  // Published before the generation bump (the release/acquire pair on
  // generation_ makes it visible to helpers).
  SimTime pool_window_end_ = 0;

  std::vector<Message> merge_buf_;  // reused between rounds
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_SHARDED_ENGINE_H_
