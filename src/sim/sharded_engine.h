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

struct ShardedConfig;

/// Execution-observer seam for the sharded engine. All hooks are
/// no-ops by default and carry both clocks: sim-time window bounds and
/// wall-clock nanoseconds (steady_clock). The engine reads the wall
/// clock *only* when an observer is attached, and nothing an observer
/// returns feeds back into windowing or merge decisions — attaching
/// one is schedule-byte-identical by construction (the
/// obs.profiler.neutral gate holds this).
///
/// Threading contract:
///   - OnAttach / OnWindowBegin / OnWindowEnd / OnMessage run on the
///     coordinator thread, strictly between windows.
///   - OnShardWindow runs on the worker thread that executed the
///     shard's window (exactly one call per shard per window; shard s
///     is statically owned by worker s % workers). Implementations
///     must confine writes to per-shard state; the engine's ack
///     release / coordinator acquire pair makes those writes visible
///     to OnWindowEnd without extra synchronization.
///   - OnWorkerStall runs on helper threads (worker ids >= 1) after
///     each generation-barrier wait; the reported span covers the
///     whole wait, including coordinator merge time between windows.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// Engine constructed; observe the final config (shards, workers,
  /// lookahead) to size per-shard state.
  virtual void OnAttach(const ShardedConfig& /*config*/) {}

  /// Coordinator is about to run window [floor, end] (inclusive end:
  /// floor + lookahead - 1, possibly clamped by a deadline).
  virtual void OnWindowBegin(std::uint64_t /*round*/, SimTime /*floor*/,
                             SimTime /*end*/, std::uint64_t /*wall_begin_ns*/) {}

  /// Shard `shard` finished its slice of window `round` on thread
  /// `worker`. `min_pending_before` is the shard's earliest pending
  /// timestamp before the window ran (kNoEvent when it was idle) —
  /// minus `floor`, that is the lookahead slack. `events_delta` is the
  /// number of events the shard committed inside this window.
  virtual void OnShardWindow(std::uint64_t /*round*/, std::uint32_t /*shard*/,
                             std::uint32_t /*worker*/, SimTime /*floor*/,
                             SimTime /*min_pending_before*/,
                             std::uint64_t /*events_delta*/,
                             std::uint64_t /*wall_begin_ns*/,
                             std::uint64_t /*wall_end_ns*/) {}

  /// All shards acked window `round`; the coordinator owns the engine
  /// again. Fold per-shard scratch here.
  virtual void OnWindowEnd(std::uint64_t /*round*/,
                           std::uint64_t /*wall_end_ns*/) {}

  /// One cross-shard message delivered (coordinator, merge order).
  virtual void OnMessage(std::uint32_t /*from*/, std::uint32_t /*to*/,
                         SimTime /*when*/) {}

  /// Helper `worker` spent `stall_wall_ns` waiting at the generation
  /// barrier before its latest release.
  virtual void OnWorkerStall(std::uint32_t /*worker*/,
                             std::uint64_t /*stall_wall_ns*/) {}

  /// Window sampling stride, read once at attach. The engine calls the
  /// wall-clocked hooks (OnWindowBegin / OnShardWindow / OnWindowEnd /
  /// OnMessage / OnWorkerStall) only on every N-th window — the
  /// default 1 observes everything. Windows on this engine run a few
  /// µs; sampling keeps an always-on profiler's amortized cost in the
  /// noise while every identity (wall-bucket conservation, the message
  /// matrix vs. OnMessage calls) stays exact over the sampled set.
  /// Sampling never touches the schedule: which windows run, and what
  /// they commit, is identical at every stride.
  virtual std::uint32_t WallSampleStride() const { return 1; }
};

/// Configuration for a ShardedEngine.
struct ShardedConfig {
  /// Number of shards (independent event loops). Shard ids are
  /// [0, shards). Each shard owns its own Simulator (timing wheel +
  /// clock); events on different shards may only interact through
  /// Post(), never by touching each other's state directly.
  std::uint32_t shards = 1;

  /// Worker threads executing shard windows. 0 = sequential reference
  /// loop (no pool, no atomics — the single-threaded core). W >= 1 uses
  /// the calling thread plus W-1 helpers, so workers=1 exercises the
  /// parallel code path degenerately. The committed schedule is
  /// byte-identical at every value, including 0.
  std::uint32_t workers = 0;

  /// Conservative-lookahead bound: every Post() issued from an event
  /// executing at time t must target `when >= t + lookahead`. This is
  /// the cross-shard seam's minimum latency (e.g. controller dispatch /
  /// completion-routing delay) and directly sets the rendezvous window
  /// width — shards run ahead `lookahead - 1` ns past the global next
  /// event before they must merge.
  SimTime lookahead = 1000;

  /// Optional execution observer (obs::EngineProfiler). Not owned;
  /// must outlive the engine. nullptr (the default) keeps the engine
  /// free of wall-clock reads entirely.
  EngineObserver* observer = nullptr;
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

  /// Sentinel "no pending event" timestamp, as passed to
  /// EngineObserver::OnShardWindow for idle shards.
  static constexpr SimTime kNoEvent = ~SimTime{0};

 private:
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
    /// Earliest pending timestamp, cached by GlobalMinPending() (which
    /// probes every shard anyway) so the observed RunShardRange can
    /// report lookahead slack without a second wheel scan. Valid for
    /// the window derived from that probe: messages were already
    /// delivered, and nothing else touches the shard's queue until its
    /// own RunUntil. Coordinator-written between windows; the
    /// generation release/acquire pair publishes it to workers.
    SimTime min_pending = kNoEvent;
  };

  /// Delivers all pending outbox messages in merge order. Returns the
  /// number delivered. Coordinator-only (between windows).
  std::size_t DeliverMessages();
  /// Earliest pending timestamp across shards, or kNoEvent when idle.
  /// Caches each shard's own minimum in Shard::min_pending as a side
  /// effect (the slack probe for an observed window).
  SimTime GlobalMinPending();
  /// Runs one window [floor, window_end] on every shard, using the
  /// worker pool when configured. `floor` is the global min-pending
  /// probe the window was derived from (observer-only; RunUntil clamps
  /// window_end, so the floor cannot be recovered from it).
  void RunWindow(SimTime floor, SimTime window_end);
  /// Runs this worker's shards up to window_end. With an observer
  /// attached, returns the wall timestamp of the last shard's end
  /// (chained reads: each end doubles as the next begin; `wall_hint`
  /// seeds the first when nonzero). Returns 0 unobserved.
  std::uint64_t RunShardRange(std::uint32_t worker_id, SimTime floor,
                              SimTime window_end,
                              std::uint64_t wall_hint = 0);

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
  // generation_ makes all three visible to helpers).
  SimTime pool_window_end_ = 0;
  SimTime pool_window_floor_ = 0;
  // The observer for the in-flight window: config_.observer on sampled
  // windows (every obs_stride_-th, countdown below), nullptr otherwise.
  // Workers and RunShardRange read this, never config_.observer.
  EngineObserver* window_obs_ = nullptr;
  std::uint32_t obs_stride_ = 1;
  std::uint32_t obs_countdown_ = 1;  // fires (samples) when it hits 0

  std::vector<Message> merge_buf_;  // reused between rounds
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_SHARDED_ENGINE_H_
