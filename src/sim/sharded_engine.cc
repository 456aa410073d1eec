#include "sim/sharded_engine.h"

#include <algorithm>

namespace postblock::sim {

ShardedEngine::ShardedEngine(const ShardedConfig& config)
    : config_(config) {
  PB_CHECK(config_.shards >= 1, "ShardedEngine needs at least one shard");
  PB_CHECK(config_.lookahead >= 1, "ShardedEngine lookahead must be >= 1");
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->sim.EnableFingerprint();
  }
  if (config_.workers > 1) StartPool();
}

ShardedEngine::~ShardedEngine() { StopPool(); }

void ShardedEngine::DeliverMessages() {
  merge_buf_.clear();
  for (auto& shard : shards_) {
    for (Message& m : shard->outbox) merge_buf_.push_back(std::move(m));
    shard->outbox.clear();
  }
  if (merge_buf_.empty()) return;
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
  for (Message& m : merge_buf_) {
    // The lookahead contract makes every message strictly future for
    // its destination (when >= window end > every shard clock), so the
    // exact timestamp survives — ScheduleAt would assert otherwise.
    shards_[m.to]->sim.ScheduleAt(m.when, std::move(m.cb));
  }
  messages_delivered_ += merge_buf_.size();
  merge_buf_.clear();
}

SimTime ShardedEngine::GlobalMinPending() const {
  SimTime min = kNoEvent;
  for (const auto& shard : shards_) {
    if (shard->sim.pending_events() != 0) {
      min = std::min(min, shard->sim.MinPendingTime());
    }
  }
  return min;
}

void ShardedEngine::RunShardRange(std::uint32_t worker_id,
                                  SimTime window_end) {
  const std::uint32_t stride = std::max(1u, config_.workers);
  for (std::uint32_t s = worker_id; s < num_shards(); s += stride) {
    shards_[s]->sim.RunUntil(window_end);
  }
}

void ShardedEngine::RunWindow(SimTime window_end) {
  ++rounds_;
  if (pool_.empty()) {
    // The sequential reference (workers 0 and 1): same windows, same
    // merge, one thread, shards in id order. Everything the parallel
    // path must match.
    RunShardRange(0, window_end);
    return;
  }
  pool_window_end_ = window_end;
  acks_.store(0, std::memory_order_relaxed);
  // Release the helpers: the generation bump publishes pool_window_end_.
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  RunShardRange(0, window_end);  // the caller is worker 0
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

SimTime ShardedEngine::Run() {
  running_ = true;
  for (;;) {
    DeliverMessages();
    const SimTime min = GlobalMinPending();
    if (min == kNoEvent) break;  // outboxes empty too: delivery ran first
    const SimTime window_end = min + config_.lookahead - 1;
    RunWindow(window_end);
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
    RunWindow(window_end);
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
  std::uint64_t seen = 0;
  for (;;) {
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
    RunShardRange(worker_id, pool_window_end_);
    acks_.fetch_add(1, std::memory_order_release);
    acks_.notify_one();
  }
}

}  // namespace postblock::sim
