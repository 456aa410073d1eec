#ifndef POSTBLOCK_CORE_PCM_LOG_H_
#define POSTBLOCK_CORE_PCM_LOG_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "pcm/pcm_device.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace postblock::core {

/// Log sequence number: byte offset of a record in the log region.
using Lsn = std::uint64_t;

/// Append-only persistent log over byte-addressable PCM — the paper's
/// Section 3 principle 1 target for synchronous persistence ("log
/// writes ... should be directed to PCM-based [storage] via non-volatile
/// memory accesses from the CPU").
///
/// Because PCM updates in place with no erase and no FTL, an append
/// costs exactly the record's lines on the memory bus — tens to hundreds
/// of nanoseconds — instead of a 4 KiB page program behind a block
/// interface. Records are length-prefixed; a zero length terminates the
/// scan, and each append rewrites the terminator in the same store.
class PcmLog {
 public:
  using AppendCb = sim::InplaceFunction<void(StatusOr<Lsn>)>;
  using StatusCb = sim::InplaceFunction<void(Status)>;

  PcmLog(sim::Simulator* sim, pcm::PcmDevice* pcm, std::uint64_t region_off,
         std::uint64_t region_len);

  PcmLog(const PcmLog&) = delete;
  PcmLog& operator=(const PcmLog&) = delete;

  /// Appends one record; the callback fires when the bytes are durable
  /// and delivers the record's LSN. Fails with ResourceExhausted when
  /// the region is full (callers checkpoint + Truncate). The payload is
  /// copied before this returns.
  void Append(const std::vector<std::uint8_t>& payload, AppendCb cb);

  /// Resets the log to empty (after a checkpoint). Durable once the
  /// callback fires.
  void Truncate(StatusCb cb);

  /// Bytes appended since the last truncate (volatile view).
  std::uint64_t head() const { return head_; }
  std::uint64_t capacity() const { return region_len_; }

  /// Synchronous post-crash scan: all records readable from the region
  /// in append order. (Un-timed; recovery timing is measured separately
  /// by replaying reads.)
  std::vector<std::vector<std::uint8_t>> RecoverAll() const;

  /// Re-attaches after a power cut: drops queued/in-flight appends and
  /// rewinds the head to the end of the durable record chain (a torn
  /// append leaves the previous terminator in place).
  void ResetAfterCrash();

  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint64_t kHeaderBytes = 8;  // u32 len + u32 seq

  /// One queued append. Pooled; `store` keeps its capacity and holds
  /// the whole PCM store from the start — header, payload and the next
  /// record's zero terminator — so the payload is copied exactly once.
  struct PendingAppend {
    std::vector<std::uint8_t> store;
    AppendCb cb;
    Lsn lsn = 0;
  };

  /// Appends execute strictly in order: an acknowledged record is never
  /// ahead of an unacknowledged one in the scan chain, so the durable
  /// prefix is exactly the acknowledged prefix.
  void PumpQueue();
  void OnStored(PendingAppend* item, Status st);

  sim::Simulator* sim_;
  pcm::PcmDevice* pcm_;
  std::uint64_t region_off_;
  std::uint64_t region_len_;
  std::uint64_t head_ = 0;
  std::uint32_t next_rec_seq_ = 1;
  sim::RecordPool<PendingAppend> appends_;
  sim::Ring<PendingAppend*> queue_;
  /// The truncating store: one header of zeroes.
  std::vector<std::uint8_t> zero_header_;
  bool store_in_flight_ = false;
  Counters counters_;
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_PCM_LOG_H_
