#ifndef POSTBLOCK_PCM_PCM_DEVICE_H_
#define POSTBLOCK_PCM_PCM_DEVICE_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace postblock::pcm {

/// Phase-change memory size. The timing is the device's own (PcmDevice).
struct PcmConfig {
  std::uint64_t capacity_bytes = 64 * kMiB;
};

/// PCM plugged on the memory bus (the paper's Section 3 principle 1
/// target for synchronous persistence). Access is modeled as occupying
/// one of kBanks concurrent units for the per-line latency — there is
/// no block indirection, no erase, no garbage collection. Circa-2012
/// figures: reads near DRAM, writes several times slower;
/// byte-addressable; in-place update (no erase).
///
/// Modeled capacity is not host memory. `capacity_bytes` bounds the
/// address space; the contents and per-line wear counters live in
/// chunks of kChunkBytes (whole lines, so a line never spans two
/// chunks), and a chunk is allocated zeroed when the first store into
/// it lands. A never-stored chunk reads as zeros, exactly as a fresh
/// device would, so a 64 MiB device that holds a 4 KiB log commits one
/// chunk.
class PcmDevice {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using ReadCb =
      sim::InplaceFunction<void(StatusOr<std::vector<std::uint8_t>>)>;

  /// Modeled bytes per committed chunk.
  static constexpr std::uint64_t kChunkBytes = 64 * kKiB;

  PcmDevice(sim::Simulator* sim, const PcmConfig& config);

  PcmDevice(const PcmDevice&) = delete;
  PcmDevice& operator=(const PcmDevice&) = delete;

  const PcmConfig& config() const { return config_; }

  /// Persists `data` at byte offset `addr`. Completion fires after the
  /// store reaches the device (write-through; no volatile cache). The
  /// bytes are copied into a pooled store record before this returns.
  void Write(std::uint64_t addr, const std::vector<std::uint8_t>& data,
             StatusCb on_done);

  /// Reads `len` bytes from `addr`.
  void Read(std::uint64_t addr, std::uint64_t len, ReadCb on_done);

  /// The bytes a load of [addr, addr + len) returns now, without
  /// timing: state inspection for tests, and Read's completion.
  StatusOr<std::vector<std::uint8_t>> Peek(std::uint64_t addr,
                                           std::uint64_t len) const;

  /// Latency a single isolated access of `len` bytes would take.
  SimTime ReadLatency(std::uint64_t len) const;
  SimTime WriteLatency(std::uint64_t len) const;

  /// Max per-line write count (wear; the paper notes PCM-based SSDs
  /// still need wear management). Only committed chunks have been
  /// written, so only they are scanned.
  std::uint64_t MaxLineWear() const;

  /// Modeled bytes backed by committed chunks: 0 before the first
  /// store, then the whole chunks stored to (the device's last chunk
  /// may be short). Host memory is this plus 4 bytes of wear counter
  /// per line.
  std::uint64_t committed_bytes() const { return committed_bytes_; }

  /// Simulates power loss: contents persist (it's PCM) but in-flight
  /// stores/loads are dropped — their callbacks never fire and a torn
  /// store leaves the old bytes.
  void PowerCycle() { ++epoch_; }

  const Counters& counters() const { return counters_; }
  sim::Resource* bus() { return &bus_; }

  /// Registers this device's time-series streams (polled-only — the
  /// access path stays untouched). Call once per registry.
  void RegisterMetrics(metrics::MetricRegistry* m);

 private:
  /// Access granularity on the bus.
  static constexpr std::uint64_t kLineBytes = 64;
  static constexpr SimTime kReadNsPerLine = 100;
  static constexpr SimTime kWriteNsPerLine = 500;
  /// Concurrent line accesses.
  static constexpr int kBanks = 4;
  static_assert(kChunkBytes % kLineBytes == 0,
                "a line never spans two chunks");

  /// One store on the bus. Pooled, and `data` keeps its capacity, so a
  /// steady stream of log appends never allocates; the bus-grant and
  /// completion lambdas capture {this, store*} and stay inline.
  struct Store {
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> data;
    SimTime latency = 0;
    std::uint64_t epoch = 0;
    StatusCb on_done;
  };

  /// One chunk's contents and its lines' wear counters; both empty
  /// until the first store into the chunk lands.
  struct Chunk {
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> wear;
  };

  /// True iff [addr, addr + len) lies within the capacity (no wrap).
  bool InRange(std::uint64_t addr, std::uint64_t len) const;
  std::uint64_t LinesFor(std::uint64_t addr, std::uint64_t len) const;
  void FinishStore(Store* st);
  /// Chunk `index`, allocated zeroed if no store has reached it yet.
  Chunk& Commit(std::uint64_t index);

  sim::Simulator* sim_;
  PcmConfig config_;
  std::vector<Chunk> chunks_;
  std::uint64_t committed_bytes_ = 0;
  sim::Resource bus_;
  sim::RecordPool<Store> stores_;
  std::uint64_t epoch_ = 0;
  Counters counters_;
};

}  // namespace postblock::pcm

#endif  // POSTBLOCK_PCM_PCM_DEVICE_H_
