#ifndef POSTBLOCK_HDD_HDD_H_
#define POSTBLOCK_HDD_HDD_H_

#include <cstdint>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::hdd {

/// A 7200rpm-class magnetic disk: single actuator (strictly serial),
/// distance-dependent seek, half-rotation average latency, streaming
/// detection for sequential access. Exists for the paper's introduction
/// contrast — "a hundredfold improvement in terms of bandwidth and
/// latency" (E10) — and as the device the block interface was designed
/// around.
class Hdd : public blocklayer::BlockDevice {
 public:
  explicit Hdd(sim::Simulator* sim);
  ~Hdd() override = default;

  std::uint64_t num_blocks() const override { return kNumBlocks; }
  std::uint32_t block_bytes() const override { return kBlockBytes; }
  void Submit(blocklayer::IoRequest request) override;
  const Counters& counters() const { return counters_; }

  /// Mechanical service time for a request at `lba` given the current
  /// head position (exposed for tests).
  SimTime ServiceTime(Lba lba, std::uint32_t nblocks) const;

 private:
  static constexpr std::uint64_t kNumBlocks = 4ull << 20;  // 16 GiB of 4 KiB
  static constexpr std::uint32_t kBlockBytes = 4096;
  static constexpr SimTime kMinSeekNs = 500 * kMicrosecond;  // track-to-track
  static constexpr SimTime kMaxSeekNs = 14 * kMillisecond;   // full stroke
  static constexpr std::uint32_t kRpm = 7200;
  static constexpr std::uint64_t kTransferMbPerS = 140;  // media rate

  sim::Simulator* sim_;
  sim::Resource actuator_;
  Lba head_ = 0;  // block under the head after the last IO
  std::vector<std::uint64_t> tokens_;
  Counters counters_;
};

}  // namespace postblock::hdd

#endif  // POSTBLOCK_HDD_HDD_H_
