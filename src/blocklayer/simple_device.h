#ifndef POSTBLOCK_BLOCKLAYER_SIMPLE_DEVICE_H_
#define POSTBLOCK_BLOCKLAYER_SIMPLE_DEVICE_H_

#include <cstdint>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::blocklayer {

/// A fixed-latency block device with `units` internal parallel units:
/// the Onyx-style PCM SSD of the paper's discussion (Section 2.4 / E11),
/// and a handy stand-in wherever a naive "constant service time" device
/// model is the point of comparison.
struct SimpleDeviceConfig {
  std::uint64_t num_blocks = 1 << 20;
  SimTime read_ns = 10 * kMicrosecond;   // PCM-array read of 4 KiB
  SimTime write_ns = 30 * kMicrosecond;  // PCM-array write of 4 KiB
  std::uint32_t units = 8;               // internal parallelism
  SimTime controller_overhead_ns = 2 * kMicrosecond;
};

class SimpleBlockDevice : public BlockDevice {
 public:
  SimpleBlockDevice(sim::Simulator* sim, const SimpleDeviceConfig& config);
  ~SimpleBlockDevice() override = default;

  std::uint64_t num_blocks() const override { return config_.num_blocks; }
  std::uint32_t block_bytes() const override { return kBlockBytes; }
  void Submit(IoRequest request) override;
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kBlockBytes = 4096;

  /// One accepted request: its blocks are served independently by the
  /// units and the last one completes it. Pooled, and the result keeps
  /// its token capacity, so steady-state IO never allocates; the
  /// scheduling lambdas capture {this, op*} and stay inline.
  struct Op {
    IoRequest req;
    std::uint32_t remaining = 0;
    IoResult result;
  };

  void Start(Op* op);
  void ServeBlock(Op* op, std::uint32_t i);

  sim::Simulator* sim_;
  SimpleDeviceConfig config_;
  sim::Resource units_;
  std::vector<std::uint64_t> tokens_;
  sim::RecordPool<Op> ops_;
  Counters counters_;
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_SIMPLE_DEVICE_H_
