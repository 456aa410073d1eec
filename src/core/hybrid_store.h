#ifndef POSTBLOCK_CORE_HYBRID_STORE_H_
#define POSTBLOCK_CORE_HYBRID_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/pcm_log.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::core {

/// The paper's Section 3 storage architecture in one object: keep
/// synchronous and asynchronous persistence patterns separate (Mohan's
/// suggestion, ref [16]).
///
///   - SyncPersist(record): the commit-critical path. In *vision* mode
///     it is a PCM log append over the memory bus (hundreds of ns); in
///     *classic* mode it is a 4 KiB log-block write + flush through the
///     block device interface (hundreds of us) — records are padded to a
///     whole block because the interface has no smaller unit.
///   - Submit(request): lazy writes, prefetching, reads — always the
///     block-granular device path.
///
/// The async class is a host::HostInterface: every request flows to the
/// data path, and block ops get the store's stream classification on
/// the way, so a multi-queue block layer with stream_queues pins
/// commit-critical WAL traffic (wal_stream) and lazy traffic
/// (async_stream) to different software queues. The store answers
/// Supports from the data path, which decides every op.
class HybridStore : public host::HostInterface {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using RecordsCb =
      sim::InplaceFunction<void(std::vector<std::vector<std::uint8_t>>)>;

  /// Vision wiring: sync -> PCM log, async -> `data_path`.
  HybridStore(sim::Simulator* sim, blocklayer::BlockDevice* data_path,
              PcmLog* pcm_log);

  /// Classic wiring: sync -> a reserved LBA region of `data_path`
  /// (round-robin log blocks, flush after every record), async -> the
  /// same device.
  HybridStore(sim::Simulator* sim, blocklayer::BlockDevice* data_path,
              Lba log_region_start, std::uint64_t log_region_blocks);

  HybridStore(const HybridStore&) = delete;
  HybridStore& operator=(const HybridStore&) = delete;

  bool vision_mode() const { return pcm_log_ != nullptr; }

  /// Durably persists one record; callback fires when it would survive
  /// power loss. `ctx` is the caller's trace identity (a WAL commit,
  /// say); with a tracer attached the whole persist — including the
  /// block-device write+flush of classic mode — becomes one kApp span.
  /// The record is copied before this returns.
  void SyncPersist(const std::vector<std::uint8_t>& record, StatusCb cb,
                   trace::Ctx ctx = {});

  /// Attaches latency attribution: sync persists are recorded on a
  /// "sync-persist" track, and classic-mode log IOs carry the persist's
  /// span down the block stack.
  void set_tracer(trace::Tracer* tracer);

  /// Forwards to the data path; a block op is counted in
  /// async_requests and takes async_stream when it is unclassified.
  void Submit(blocklayer::IoRequest request) override;
  bool Supports(blocklayer::IoOp op) const override {
    return data_path_->Supports(op);
  }
  /// Capability discovery: the data path's caps, plus the one thing
  /// this layer adds that no device below can claim — a synchronous
  /// byte-granular PCM persistence path (vision mode).
  host::DeviceCaps Caps() const override {
    host::DeviceCaps caps = data_path_->Caps();
    caps.pcm_sync = vision_mode();
    return caps;
  }
  void SetMigrationHandler(host::MigrationHandler handler) override {
    data_path_->SetMigrationHandler(std::move(handler));
  }

  /// Stream classification for queue pinning: classic-mode SyncPersist
  /// log write+flush carry `wal_stream`; unclassified async requests
  /// carry `async_stream`. Both default to 0 (off — no pinning).
  void set_streams(std::uint8_t wal_stream, std::uint8_t async_stream) {
    wal_stream_ = wal_stream;
    async_stream_ = async_stream;
  }

  /// All records whose SyncPersist completed (i.e. that would survive a
  /// crash), in persist order. Vision mode scans the PCM log region;
  /// classic mode reflects the log blocks on the device.
  std::vector<std::vector<std::uint8_t>> DurableRecords() const;

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

  blocklayer::BlockDevice* data_path() { return data_path_; }
  PcmLog* pcm_log() { return pcm_log_; }

  const Histogram& sync_latency() const { return sync_latency_; }
  const Counters& counters() const { return counters_; }

 private:
  /// One sync persist in flight. Pooled, and the classic-mode record
  /// buffer keeps its capacity; the log write, the flush and the PCM
  /// append complete through {this, persist*} captures.
  struct Persist {
    SimTime start = 0;
    trace::SpanId span = 0;
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
  /// Records the span, releases `p` and delivers `st` to its callback.
  void FinishPersist(Persist* p, Status st);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* data_path_;
  PcmLog* pcm_log_ = nullptr;

  // Stream classification (0 = unclassified, no queue pinning).
  std::uint8_t wal_stream_ = 0;
  std::uint8_t async_stream_ = 0;

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

  Histogram sync_latency_;
  Counters counters_;

  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;  // "sync-persist" (host pid)
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_HYBRID_STORE_H_
