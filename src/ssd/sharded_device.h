#ifndef POSTBLOCK_SSD_SHARDED_DEVICE_H_
#define POSTBLOCK_SSD_SHARDED_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/sharded_engine.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/shard_plan.h"
#include "ssd/shard_router.h"
#include "trace/tracer.h"

namespace postblock::ssd {

/// Run parameters for the device-on-engine harness: a closed-loop
/// fig2-class host (sequential precondition, then a random read/write
/// mix at fixed queue depth) driving the full ssd::Device — FTL, GC,
/// write buffer, reliability ladder included — on a ShardPlan-derived
/// sharded engine. Identical parameters must commit an identical
/// schedule at every worker count; the sharded_device.determinism gate
/// and the sharded-device test hold ModelFingerprint()/
/// CombinedFingerprint() to that.
struct ShardedDeviceRun {
  std::uint32_t workers = 0;  // 0 = the sequential reference loop
  std::uint32_t queue_depth = 32;
  std::uint64_t total_ios = 20000;   // main phase, after precondition
  std::uint32_t write_percent = 30;  // rest are reads
  /// Fraction of user pages sequentially written before the main phase
  /// (an aged device, so random overwrites exercise GC relocation
  /// across the seam).
  double fill_fraction = 0.6;
  std::uint64_t seed = 0x5eed;
  /// Attach trace rings: one per channel shard plus the shared
  /// controller ring. Their contents fold into ModelFingerprint(), so
  /// the digest gates also hold tracing to worker-count invariance.
  bool tracing = false;
};

/// Owns engine + router + device + host loop for one run. Build, call
/// Run() once, then read the fingerprints/introspection accessors.
class ShardedDeviceSim {
 public:
  ShardedDeviceSim(const Config& config, const ShardedDeviceRun& run);

  ShardedDeviceSim(const ShardedDeviceSim&) = delete;
  ShardedDeviceSim& operator=(const ShardedDeviceSim&) = delete;

  /// Drives the closed loop to completion; returns final sim time.
  SimTime Run();

  Device* device() { return device_.get(); }
  sim::ShardedEngine* engine() { return engine_.get(); }
  const ShardPlan& plan() const { return router_->plan(); }

  std::uint64_t ios_completed() const { return done_; }
  std::uint64_t io_errors() const { return errors_; }

  /// Digest of model observables: device + flash counters, host and
  /// controller latency histograms, write amplification, GC-stall
  /// attribution, final sim time, and (when tracing) every retained
  /// trace event of every ring. Byte-identical schedules must produce
  /// equal digests.
  std::uint64_t ModelFingerprint() const;
  /// ModelFingerprint folded with the engine's committed-schedule
  /// fingerprint — the witness the sharded_device.determinism gate
  /// compares across worker counts.
  std::uint64_t CombinedFingerprint() const;

 private:
  void Pump();                 // controller-shard context: keep qd full
  void Issue();                // submit the next IO of the script
  void OnDone(const Status& st);

  Config config_;
  ShardedDeviceRun run_;
  ShardPlan plan_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<trace::Tracer>> rings_;  // tracing only
  std::unique_ptr<Device> device_;

  std::uint64_t fill_pages_ = 0;    // precondition span (user LBAs)
  std::uint64_t fill_issued_ = 0;
  std::uint64_t main_issued_ = 0;
  std::uint32_t inflight_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t token_ = 1;         // write payload stamp
  std::uint64_t rng_ = 0;           // splitmix64 state, seeded per run
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_SHARDED_DEVICE_H_
