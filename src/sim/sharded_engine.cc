#include "sim/sharded_engine.h"

#include <algorithm>
#include <chrono>

namespace postblock::sim {

namespace {

/// Wall clock for the observer's dual-clock hooks. Only called when an
/// observer is attached, so the detached engine stays syscall-free.
///
/// Windows on this engine run ~a few µs each, so the profiler reads
/// the clock at window rate: a vDSO clock_gettime (~20-25ns) per read
/// would cost several percent of the whole run. On x86-64 we read the
/// TSC instead and scale to nanoseconds with a mapping
/// calibrated once against steady_clock — at the first attached
/// engine's construction, never inside a window (the constructor warms
/// the function-local static below before the pool starts).
///
/// The read is RDTSCP, not RDTSC: it waits for every earlier load, so
/// the coordinator's window-end read cannot execute speculatively
/// before the helper acks it follows — otherwise a helper's shard-end
/// timestamp can land a few ns past the window end and the
/// busy/idle/barrier buckets stop tiling the window. The fence costs
/// ~8ns per read (~31 vs ~24ns for RDTSC on a 4-core x86-64 VM).
#if defined(__x86_64__)
struct TscClock {
  std::uint64_t base = 0;
  double ns_per_tick = 1.0;

  static std::uint64_t Read() {
    unsigned aux;
    return __builtin_ia32_rdtscp(&aux);
  }

  TscClock() {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const std::uint64_t c0 = Read();
    // ~2ms spin bounds the frequency-estimate error around 0.1%;
    // profile buckets are relative attributions, that is plenty.
    while (clock::now() - t0 < std::chrono::milliseconds(2)) {
    }
    const auto t1 = clock::now();
    const std::uint64_t c1 = Read();
    ns_per_tick = static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count()) /
                  static_cast<double>(c1 - c0);
    base = c0;
  }

  std::uint64_t Now() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(Read() - base) * ns_per_tick);
  }
};

std::uint64_t WallNs() {
  static const TscClock clock;
  return clock.Now();
}
#else
std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

}  // namespace

ShardedEngine::ShardedEngine(const ShardedConfig& config)
    : config_(config) {
  PB_CHECK(config_.shards >= 1, "ShardedEngine needs at least one shard");
  PB_CHECK(config_.lookahead >= 1, "ShardedEngine lookahead must be >= 1");
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->sim.EnableFingerprint();
  }
  if (config_.observer != nullptr) {
    (void)WallNs();  // calibrate the wall clock outside any window
    config_.observer->OnAttach(config_);
    obs_stride_ = std::max(1u, config_.observer->WallSampleStride());
    obs_countdown_ = 1;  // the first window is always sampled
  }
  if (config_.workers > 1) StartPool();
}

ShardedEngine::~ShardedEngine() { StopPool(); }

std::size_t ShardedEngine::DeliverMessages() {
  merge_buf_.clear();
  for (auto& shard : shards_) {
    for (Message& m : shard->outbox) merge_buf_.push_back(std::move(m));
    shard->outbox.clear();
  }
  if (merge_buf_.empty()) return 0;
  // The deterministic merge: a total order on cross-shard events that
  // no worker interleaving can perturb. Push order into the destination
  // wheel encodes the tiebreak (EventQueue fires equal timestamps in
  // insertion order).
  std::sort(merge_buf_.begin(), merge_buf_.end(),
            [](const Message& a, const Message& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.from != b.from) return a.from < b.from;
              return a.seq < b.seq;
            });
  // Messages are observed only when the window they precede is sampled
  // (countdown at 1 means the next RunWindow decrements it to 0), so
  // the flow matrix stays consistent with the sampled window set.
  EngineObserver* const obs =
      (config_.observer != nullptr && obs_countdown_ == 1)
          ? config_.observer
          : nullptr;
  for (Message& m : merge_buf_) {
    if (obs != nullptr) obs->OnMessage(m.from, m.to, m.when);
    // The lookahead contract makes every message strictly future for
    // its destination (when >= window end > every shard clock), so the
    // exact timestamp survives — ScheduleAt would assert otherwise.
    shards_[m.to]->sim.ScheduleAt(m.when, std::move(m.cb));
  }
  const std::size_t n = merge_buf_.size();
  messages_delivered_ += n;
  merge_buf_.clear();
  return n;
}

SimTime ShardedEngine::GlobalMinPending() {
  SimTime min = kNoEvent;
  for (auto& shard : shards_) {
    shard->min_pending = shard->sim.pending_events() == 0
                             ? kNoEvent
                             : shard->sim.MinPendingTime();
    min = std::min(min, shard->min_pending);
  }
  return min;
}

std::uint64_t ShardedEngine::RunShardRange(std::uint32_t worker_id,
                                           SimTime floor,
                                           SimTime window_end,
                                           std::uint64_t wall_hint) {
  EngineObserver* const obs = window_obs_;
  const std::uint32_t stride = std::max(1u, config_.workers);
  if (obs == nullptr) {
    for (std::uint32_t s = worker_id; s < num_shards(); s += stride) {
      shards_[s]->sim.RunUntil(window_end);
    }
    return 0;
  }
  // Dual-clock instrumentation: everything here is read-only on the
  // shard (min_pending is the coordinator's cached non-committing
  // probe from GlobalMinPending) or happens after RunUntil committed
  // the exact same events it would have committed unobserved — the
  // schedule cannot notice the observer. This worker's shards run back
  // to back, so each shard's end timestamp doubles as the next shard's
  // begin (and the caller's `wall_hint` seeds the first) — one clock
  // read per shard, not two.
  std::uint64_t wall = wall_hint != 0 ? wall_hint : WallNs();
  for (std::uint32_t s = worker_id; s < num_shards(); s += stride) {
    Shard& shard = *shards_[s];
    const SimTime min_pending = shard.min_pending;
    const std::uint64_t events_before = shard.sim.events_executed();
    shard.sim.RunUntil(window_end);
    const std::uint64_t wall_end = WallNs();
    obs->OnShardWindow(rounds_, s, worker_id, floor, min_pending,
                       shard.sim.events_executed() - events_before, wall,
                       wall_end);
    wall = wall_end;
  }
  return wall;
}

void ShardedEngine::RunWindow(SimTime floor, SimTime window_end) {
  ++rounds_;
  // Window-sampling gate: observe this window iff the countdown fires.
  // window_obs_ is published to helpers by the generation bump below,
  // alongside the window bounds.
  EngineObserver* obs = nullptr;
  if (config_.observer != nullptr && --obs_countdown_ == 0) {
    obs_countdown_ = obs_stride_;
    obs = config_.observer;
  }
  window_obs_ = obs;
  std::uint64_t wall = 0;
  if (obs != nullptr) {
    wall = WallNs();
    obs->OnWindowBegin(rounds_, floor, window_end, wall);
  }
  // `wall` chains through the single-thread paths: the window-begin
  // read seeds the first shard, and the last shard's end read IS the
  // window end (nothing runs after it). The pool path must take a
  // fresh read instead — the window ends at the last helper's ack,
  // not at the coordinator's own last shard.
  bool reuse_wall = false;
  if (config_.workers == 0) {
    // The sequential reference: same windows, same merge, one thread,
    // shards in id order. Everything the parallel path must match.
    wall = RunShardRange(0, floor, window_end, wall);
    reuse_wall = true;
  } else if (pool_.empty()) {
    wall = RunShardRange(0, floor, window_end, wall);
    reuse_wall = true;
  } else {
    pool_window_end_ = window_end;
    pool_window_floor_ = floor;
    acks_.store(0, std::memory_order_relaxed);
    // Release the helpers: the generation bump publishes
    // pool_window_end_ / pool_window_floor_.
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    RunShardRange(0, floor, window_end, wall);  // the caller is worker 0
    // Wait for all helpers to ack this window.
    const auto helpers = static_cast<std::uint32_t>(pool_.size());
    std::uint32_t done = acks_.load(std::memory_order_acquire);
    while (done != helpers) {
      int spins = 4096;
      while (spins-- > 0 &&
             (done = acks_.load(std::memory_order_acquire)) != helpers) {
      }
      if (done != helpers) acks_.wait(done, std::memory_order_acquire);
    }
  }
  if (obs != nullptr) {
    obs->OnWindowEnd(rounds_, reuse_wall ? wall : WallNs());
  }
}

SimTime ShardedEngine::Run() {
  running_ = true;
  for (;;) {
    DeliverMessages();
    const SimTime min = GlobalMinPending();
    if (min == kNoEvent) break;  // outboxes empty too: delivery ran first
    const SimTime window_end = min + config_.lookahead - 1;
    RunWindow(min, window_end);
    committed_ = window_end;
  }
  running_ = false;
  // Shards that drained early parked their clocks at the last window
  // end; committed_ is the global end of simulated time.
  return committed_;
}

SimTime ShardedEngine::RunUntil(SimTime deadline) {
  running_ = true;
  for (;;) {
    DeliverMessages();
    const SimTime min = GlobalMinPending();
    if (min == kNoEvent || min > deadline) break;
    // Never run a window past the deadline: later events stay queued
    // with exact timestamps (Simulator::RunUntil's bounded peek).
    const SimTime window_end =
        std::min(min + config_.lookahead - 1, deadline);
    RunWindow(min, window_end);
    committed_ = window_end;
  }
  if (committed_ < deadline) {
    for (auto& shard : shards_) shard->sim.RunUntil(deadline);
    committed_ = deadline;
  }
  running_ = false;
  return committed_;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events_executed();
  return total;
}

std::uint64_t ShardedEngine::Fingerprint() const {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const auto& shard : shards_) {
    const std::uint64_t fp =
        shard->sim.fingerprint() ^ shard->sim.events_executed();
    h ^= fp + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void ShardedEngine::StartPool() {
  const std::uint32_t helpers = config_.workers - 1;
  pool_.reserve(helpers);
  for (std::uint32_t w = 1; w <= helpers; ++w) {
    pool_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void ShardedEngine::StopPool() {
  if (pool_.empty()) return;
  stop_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
}

void ShardedEngine::WorkerLoop(std::uint32_t worker_id) {
  // The stall-begin read is gated on config_.observer (whether the
  // window being waited for is sampled isn't knowable until release);
  // the OnWorkerStall call itself follows window_obs_, so stall
  // attribution covers exactly the sampled windows.
  const bool attached = config_.observer != nullptr;
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t stall_begin = attached ? WallNs() : 0;
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    while (gen == seen) {
      int spins = 4096;
      while (spins-- > 0 &&
             (gen = generation_.load(std::memory_order_acquire)) == seen) {
      }
      if (gen == seen) generation_.wait(seen, std::memory_order_acquire);
      gen = generation_.load(std::memory_order_acquire);
    }
    seen = gen;
    if (stop_.load(std::memory_order_acquire)) return;
    if (window_obs_ != nullptr) {
      window_obs_->OnWorkerStall(worker_id, WallNs() - stall_begin);
    }
    RunShardRange(worker_id, pool_window_floor_, pool_window_end_);
    acks_.fetch_add(1, std::memory_order_release);
    acks_.notify_one();
  }
}

}  // namespace postblock::sim
