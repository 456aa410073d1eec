#ifndef POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_
#define POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_

#include <cstdint>

#include "blocklayer/block_device.h"
#include "blocklayer/cpu_model.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::blocklayer {

/// Direct user-space access to the device, bypassing the block layer —
/// the FusionIO ioMemory SDK path the paper cites: no software queue, no
/// scheduler, no interrupt; just a thin submit cost and a polled
/// completion cost.
class DirectDriver : public BlockDevice {
 public:
  DirectDriver(sim::Simulator* sim, BlockDevice* lower);
  ~DirectDriver() override = default;

  std::uint64_t num_blocks() const override { return lower_->num_blocks(); }
  std::uint32_t block_bytes() const override {
    return lower_->block_bytes();
  }
  /// Block ops pay the driver's thin submit/poll costs; hints complete
  /// here; extended ops (atomic groups, nameless writes) pass straight
  /// through when the device supports them — the direct path exists
  /// precisely to not stand between host and device.
  void Submit(IoRequest request) override;
  const Counters& counters() const { return counters_; }

  /// Every op but a hint is the device's to support.
  bool Supports(IoOp op) const override;
  /// Migration handling passes straight through.
  void SetMigrationHandler(host::MigrationHandler handler) override {
    lower_->SetMigrationHandler(std::move(handler));
  }

  const Histogram& latency() const { return latency_; }
  double CpuUtilization() const { return cpu_res_.Utilization(); }

  /// Simulates power loss / host reset: in-flight requests are dropped.
  void PowerCycle() { ++epoch_; }

  /// Registers this driver's time-series streams (polled-only — the
  /// driver's hot path stays untouched). Call once per registry.
  void RegisterMetrics(metrics::MetricRegistry* m);

 private:
  /// One device submission; re-entered (with the same `start`) by the
  /// EIO retry path when a read comes back DataLoss.
  void SubmitAttempt(IoRequest request, SimTime start,
                     std::uint32_t attempt);

  static constexpr CpuCosts kCpu = CpuCosts::Direct();
  /// Host cores submitting and polling.
  static constexpr int kCores = 4;

  sim::Simulator* sim_;
  BlockDevice* lower_;
  sim::Resource cpu_res_;
  std::uint64_t epoch_ = 0;
  Histogram latency_;
  Counters counters_;
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_DIRECT_DRIVER_H_
