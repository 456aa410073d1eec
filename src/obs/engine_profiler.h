#ifndef POSTBLOCK_OBS_ENGINE_PROFILER_H_
#define POSTBLOCK_OBS_ENGINE_PROFILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/sharded_engine.h"

namespace postblock::obs {

/// Folded per-shard execution totals over every observed window. The
/// three wall buckets tile each window's wall span exactly:
///
///   idle    = window wall begin -> shard's slice began (the shard sat
///             behind other shards on its worker, or its worker hadn't
///             been released yet)
///   busy    = the shard's own RunUntil wall span
///   barrier = shard's slice ended -> last shard acked (the shard's
///             results waited for the stragglers — imbalance, directly)
///
/// so busy + idle + barrier == Σ window wall spans per shard, an exact
/// conservation identity tests can hold to the nanosecond.
struct ShardProfile {
  std::uint64_t busy_wall_ns = 0;
  std::uint64_t idle_wall_ns = 0;
  std::uint64_t barrier_wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t windows_active = 0;  // windows with >= 1 committed event
  std::uint64_t windows_idle = 0;    // windows entered with nothing pending

  double Utilization() const {
    const std::uint64_t total = busy_wall_ns + idle_wall_ns + barrier_wall_ns;
    return total == 0 ? 0.0
                      : static_cast<double>(busy_wall_ns) /
                            static_cast<double>(total);
  }
};

/// Per-helper generation-barrier totals (worker ids >= 1; worker 0 is
/// the coordinator and never stalls at the barrier).
struct WorkerProfile {
  std::uint64_t stalls = 0;
  std::uint64_t stall_wall_ns = 0;
};

/// One retained window for the wall-time timeline export.
struct WindowRecord {
  struct ShardSpan {
    std::uint64_t wall_begin_ns = 0;
    std::uint64_t wall_end_ns = 0;
    std::uint64_t events = 0;
    std::uint32_t worker = 0;
    bool idle = false;  // entered the window with nothing pending
  };
  std::uint64_t round = 0;
  SimTime floor = 0;  // sim-time window bounds [floor, end]
  SimTime end = 0;
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::vector<ShardSpan> shards;
};

struct EngineProfilerConfig {
  /// Windows retained for the Perfetto timeline (oldest dropped first).
  /// Folded totals (ShardProfile etc.) cover every *sampled* window.
  std::size_t max_window_records = 4096;

  /// Window sampling stride handed to the engine (EngineObserver::
  /// WallSampleStride): hooks fire on every N-th window only. Windows
  /// run ~a few µs, so full observation costs double-digit percent;
  /// the default 16 keeps an attached profiler under the 2% overhead
  /// gate while per-shard utilization, slack percentiles, and the
  /// flow matrix stay unbiased (every identity is exact over the
  /// sampled set). Set 1 for exhaustive capture — the conservation
  /// tests do. Never affects the schedule, only what is recorded.
  std::uint32_t sample_every = 16;
};

/// Dual-clock execution profiler for sim::ShardedEngine: attach via
/// `ShardedConfig::observer = &profiler`. Answers "where does parallel
/// speedup die" with per-shard busy/idle/barrier wall attribution, a
/// lookahead-slack histogram (how far past the window floor each
/// shard's next event sat — the parallelism the seam pricing left
/// unused), a cross-shard message-flow matrix, and helper-thread
/// barrier-stall totals.
///
/// Sampling: by default every 16th window is observed in full (config
/// sample_every; 1 = exhaustive). All folded totals, the ring, and
/// windows_observed() cover the sampled windows only; conservation
/// identities hold exactly over that set, and rates/ratios (per-shard
/// utilization, slack percentiles, flow-matrix shares) are unbiased.
///
/// Threading: worker threads write only their shards' padded scratch
/// slots (and their own WorkerProfile); the coordinator folds all
/// scratch into the totals at OnWindowEnd, under the engine's existing
/// ack-release/acquire pair — no locks, no atomics of its own. All
/// accessors are coordinator-side (between windows or after Run()).
///
/// Neutrality: the profiler only reads engine state (the slack probe
/// is Simulator::MinPendingTime, non-committing) and nothing it
/// computes feeds back — attaching it is schedule-byte-identical,
/// proven in tests/obs_test.cc and held by the obs.profiler.neutral
/// gate.
class EngineProfiler final : public sim::EngineObserver {
 public:
  explicit EngineProfiler(EngineProfilerConfig config = {});

  // --- sim::EngineObserver hooks --------------------------------------
  void OnAttach(const sim::ShardedConfig& config) override;
  void OnWindowBegin(std::uint64_t round, SimTime floor, SimTime end,
                     std::uint64_t wall_begin_ns) override;
  void OnShardWindow(std::uint64_t round, std::uint32_t shard,
                     std::uint32_t worker, SimTime floor,
                     SimTime min_pending_before, std::uint64_t events_delta,
                     std::uint64_t wall_begin_ns,
                     std::uint64_t wall_end_ns) override;
  void OnWindowEnd(std::uint64_t round, std::uint64_t wall_end_ns) override;
  void OnMessage(std::uint32_t from, std::uint32_t to, SimTime when) override;
  void OnWorkerStall(std::uint32_t worker,
                     std::uint64_t stall_wall_ns) override;
  std::uint32_t WallSampleStride() const override {
    return config_.sample_every;
  }

  // --- Folded results (coordinator-side) ------------------------------
  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shard_profiles_.size());
  }
  std::uint32_t workers() const { return workers_; }
  const std::vector<ShardProfile>& shard_profiles() const {
    return shard_profiles_;
  }
  /// Lookahead slack (MinPendingTime - window floor), sim-ns, over
  /// every non-idle shard-window.
  const Histogram& slack_hist() const { return slack_hist_; }
  /// Cross-shard message counts, row-major [from * shards + to].
  const std::vector<std::uint64_t>& message_matrix() const {
    return message_matrix_;
  }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t windows_observed() const { return windows_observed_; }
  /// Σ wall span of every observed window (the conservation total).
  std::uint64_t total_window_wall_ns() const { return total_window_wall_ns_; }
  /// Retained per-window detail, oldest first (copied out of the
  /// bounded circular ring).
  std::vector<WindowRecord> windows() const;
  std::uint64_t windows_retained() const { return window_ring_.size(); }
  std::uint64_t windows_dropped() const { return windows_dropped_; }

  /// Clears folded totals and the window ring; keeps the attachment.
  void Reset();

  // --- Export ----------------------------------------------------------
  /// Wall-time Perfetto timeline in Chrome trace JSON: one "windows"
  /// track plus one track per shard under pid trace::kPidEngineWall,
  /// timestamps rebased to the first observed window. Parseable by
  /// trace::ParseChromeTrace; mergeable with a sim-time trace via
  /// MergedChromeJson.
  std::string ToChromeJson() const;

  /// Splices this profiler's wall-time events into an existing Chrome
  /// trace JSON document (e.g. trace::ToChromeJson output), so the
  /// sim-time and wall-time tracks coexist in one Perfetto view.
  std::string MergedChromeJson(const std::string& sim_trace_json) const;

  /// The git-SHA-stamped profile report. `meta_fields` is spliced
  /// verbatim into the "meta" object (same contract as
  /// metrics::TimeSeries::WriteJson; callers build it with
  /// bench::MetaJsonFields).
  std::string ReportJson(const std::string& meta_fields = "") const;
  Status WriteReport(const std::string& path,
                     const std::string& meta_fields = "") const;

 private:
  /// Worker-written per-shard scratch for the in-flight window. Padded
  /// so two workers never share a line; reset by the coordinator
  /// before the next release.
  struct alignas(64) ShardScratch {
    std::uint64_t wall_begin_ns = 0;
    std::uint64_t wall_end_ns = 0;
    std::uint64_t events = 0;
    SimTime min_pending = 0;
    std::uint32_t worker = 0;
    bool ran = false;
  };
  struct alignas(64) WorkerScratch {
    WorkerProfile profile;
  };

  EngineProfilerConfig config_;
  std::uint32_t workers_ = 0;
  SimTime lookahead_ = 0;

  // In-flight window (coordinator-written except scratch slots).
  std::uint64_t window_wall_begin_ns_ = 0;
  SimTime window_floor_ = 0;
  SimTime window_end_ = 0;
  std::vector<ShardScratch> scratch_;
  std::vector<WorkerScratch> worker_scratch_;

  // Folded totals (coordinator-only).
  std::vector<ShardProfile> shard_profiles_;
  std::vector<WorkerProfile> worker_profiles_;
  Histogram slack_hist_;
  std::vector<std::uint64_t> message_matrix_;
  std::uint64_t messages_ = 0;
  std::uint64_t windows_observed_ = 0;
  std::uint64_t total_window_wall_ns_ = 0;
  std::uint64_t first_window_wall_ns_ = 0;
  /// Circular once full: ring_head_ is the oldest record. Slots are
  /// overwritten in place (the per-shard vector's storage is reused)
  /// so a full ring appends in O(shards), not O(ring).
  std::vector<WindowRecord> window_ring_;
  std::size_t ring_head_ = 0;
  std::uint64_t windows_dropped_ = 0;

  /// Calls fn(record) oldest-first without copying the ring.
  template <typename Fn>
  void ForEachWindow(Fn&& fn) const {
    const std::size_t n = window_ring_.size();
    for (std::size_t k = 0; k < n; ++k) {
      fn(window_ring_[(ring_head_ + k) % n]);
    }
  }
};

}  // namespace postblock::obs

#endif  // POSTBLOCK_OBS_ENGINE_PROFILER_H_
