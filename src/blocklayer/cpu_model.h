#ifndef POSTBLOCK_BLOCKLAYER_CPU_MODEL_H_
#define POSTBLOCK_BLOCKLAYER_CPU_MODEL_H_

#include "common/types.h"

namespace postblock::blocklayer {

/// Host CPU cost of pushing one IO through the kernel block layer. On
/// disks these costs were noise next to a 10 ms seek; at SSD latencies
/// they bound IOPS — the paper's Section 3 "streamlined execution /
/// low-latency networking" argument. Benches sweep these.
struct CpuCosts {
  SimTime submit_ns = 4000;     // syscall + bio setup + queue insert
  SimTime schedule_ns = 1500;   // elevator/scheduler work per request
  SimTime interrupt_ns = 5000;  // IRQ, context switch, completion path
  SimTime polled_ns = 700;      // completion cost when polling instead

  /// The 2012-era single-queue block layer the paper describes.
  static constexpr CpuCosts Legacy() { return CpuCosts{}; }
  /// A streamlined multiqueue-style stack (reduced locking, per-core
  /// completions).
  static constexpr CpuCosts Streamlined() { return {1200, 300, 1500, 400}; }
  /// User-space direct access (ioMemory SDK analogy): no kernel costs.
  static constexpr CpuCosts Direct() { return {500, 0, 0, 250}; }
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_CPU_MODEL_H_
