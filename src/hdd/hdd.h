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
struct HddConfig {
  std::uint64_t num_blocks = 4ull << 20;  // 16 GiB of 4 KiB blocks
  std::uint32_t block_bytes = 4096;
  SimTime min_seek_ns = 500 * kMicrosecond;   // track-to-track
  SimTime max_seek_ns = 14 * kMillisecond;    // full stroke
  std::uint32_t rpm = 7200;
  std::uint64_t transfer_mb_per_s = 140;      // media rate
};

class Hdd : public blocklayer::BlockDevice {
 public:
  Hdd(sim::Simulator* sim, const HddConfig& config);
  ~Hdd() override = default;

  std::uint64_t num_blocks() const override { return config_.num_blocks; }
  std::uint32_t block_bytes() const override {
    return config_.block_bytes;
  }
  void Submit(blocklayer::IoRequest request) override;
  const Counters& counters() const { return counters_; }

  /// Mechanical service time for a request at `lba` given the current
  /// head position (exposed for tests).
  SimTime ServiceTime(Lba lba, std::uint32_t nblocks) const;

 private:
  sim::Simulator* sim_;
  HddConfig config_;
  sim::Resource actuator_;
  Lba head_ = 0;  // block under the head after the last IO
  std::vector<std::uint64_t> tokens_;
  Counters counters_;
};

}  // namespace postblock::hdd

#endif  // POSTBLOCK_HDD_HDD_H_
