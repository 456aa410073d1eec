#ifndef POSTBLOCK_CORE_HYBRID_STORE_H_
#define POSTBLOCK_CORE_HYBRID_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/pcm_log.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace postblock::core {

/// The paper's Section 3 storage architecture for the write-ahead log:
/// keep synchronous and asynchronous persistence patterns separate
/// (Mohan's suggestion, ref [16]). This is the synchronous half — the
/// WAL's persistence back-end; the asynchronous half (lazy page writes,
/// prefetching, reads) is the data path itself, which the storage
/// manager's buffer pool drives directly.
///
///   - Vision mode: SyncPersist(record) is a PCM log append over the
///     memory bus (hundreds of ns).
///   - Classic mode: it is a 4 KiB log-block write + flush through the
///     block device interface (hundreds of us) — records are padded to
///     a whole block because the interface has no smaller unit.
class HybridStore {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using RecordsCb =
      sim::InplaceFunction<void(std::vector<std::vector<std::uint8_t>>)>;

  /// Vision wiring: sync -> PCM log.
  HybridStore(sim::Simulator* sim, PcmLog* pcm_log);

  /// Classic wiring: sync -> a reserved LBA region of `data_path`
  /// (round-robin log blocks, flush after every record).
  HybridStore(sim::Simulator* sim, blocklayer::BlockDevice* data_path,
              Lba log_region_start, std::uint64_t log_region_blocks);

  HybridStore(const HybridStore&) = delete;
  HybridStore& operator=(const HybridStore&) = delete;

  bool vision_mode() const { return pcm_log_ != nullptr; }

  /// Durably persists one record; callback fires when it would survive
  /// power loss. The record is copied before this returns.
  void SyncPersist(const std::vector<std::uint8_t>& record, StatusCb cb);

  /// Recovery's view: re-reads the classic log region through the data
  /// path and returns the longest intact prefix of durable records. A
  /// log block that reads back failed (uncorrectable media, even after
  /// every retry) or stale (token mismatch — overwritten by a wrapped
  /// log head) is a *torn point*: that record and everything after it
  /// are dropped, i.e. the log truncates at the first bad record
  /// instead of replaying past a hole. Vision mode completes with the
  /// PCM log as-is (the memory bus path has no flash error model).
  void RecoverRecords(RecordsCb cb);

  /// Resets the log after a checkpoint. Durable when the callback fires.
  void TruncateLog(StatusCb cb);

  const Counters& counters() const { return counters_; }

 private:
  /// One sync persist in flight. Pooled, and the classic-mode record
  /// buffer keeps its capacity; the log write, the flush and the PCM
  /// append complete through {this, persist*} captures.
  struct Persist {
    Lba lba = 0;
    std::uint64_t token = 0;
    std::vector<std::uint8_t> record;  // classic mode only
    StatusCb cb;
  };

  /// One classic-log recovery pass: the scan owns its position, output
  /// and callback; each read completion holds the scan and re-enters
  /// RecoverStep, so the scan is freed with its last continuation.
  struct RecoveryScan;
  void RecoverStep(const std::shared_ptr<RecoveryScan>& scan);

  void OnLogWritten(Persist* p, const blocklayer::IoResult& wr);
  void OnLogFlushed(Persist* p, const blocklayer::IoResult& fr);
  /// Releases `p` and delivers `st` to its callback.
  void FinishPersist(Persist* p, Status st);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* data_path_ = nullptr;  // classic mode only
  PcmLog* pcm_log_ = nullptr;

  // Classic-mode log region state.
  Lba log_region_start_ = 0;
  std::uint64_t log_region_blocks_ = 0;
  std::uint64_t log_head_block_ = 0;
  std::uint64_t next_log_token_ = 1;
  /// Classic mode: the records whose log-block write + flush completed,
  /// the first classic_slots_.size() entries. (Models reading the log
  /// region back; the device only stores tokens.) Truncation keeps the
  /// buffers, so a steady commit stream reuses them.
  std::vector<std::vector<std::uint8_t>> classic_durable_;
  /// Where each classic_durable_ record landed (parallel vector):
  /// RecoverRecords re-reads these to verify the log is still intact.
  struct ClassicLogSlot {
    Lba lba = 0;
    std::uint64_t token = 0;
  };
  std::vector<ClassicLogSlot> classic_slots_;
  sim::RecordPool<Persist> persists_;

  Counters counters_;
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_HYBRID_STORE_H_
