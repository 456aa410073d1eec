#ifndef POSTBLOCK_BLOCKLAYER_BLOCK_LAYER_H_
#define POSTBLOCK_BLOCKLAYER_BLOCK_LAYER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "blocklayer/cpu_model.h"
#include "blocklayer/drr.h"
#include "blocklayer/io_scheduler.h"
#include "blocklayer/request.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::blocklayer {

/// Configuration of the kernel block layer model.
///
/// Every multi-queue knob defaults to the behaviour of the pre-mq
/// layer: elastic tags, no stream pinning, unbatched doorbells,
/// uncoalesced completions, per-queue depth accounting. A default
/// config therefore produces a schedule byte-identical to the old
/// block layer at any nr_queues.
struct BlockLayerConfig {
  CpuCosts cpu = CpuCosts::Legacy();
  std::uint32_t cores = 4;
  /// Max requests outstanding at the device (per-queue depth).
  std::uint32_t queue_depth = 32;
  /// Number of software/hardware queue pairs (1 = the 2012 single-queue
  /// design with its shared-lock behaviour; >1 = blk-mq style).
  std::uint32_t nr_queues = 1;
  SchedulerKind scheduler = SchedulerKind::kMerge;
  /// Completion by interrupt (true) or polling (false).
  bool interrupt_completion = true;

  // ---- multi-queue host path (blk-mq style) -------------------------
  /// Fixed inflight tags per queue: at most this many IOs hold a state
  /// record from submit to completion. 0 = elastic (the pool grows on
  /// demand and never backpressures). Exhaustion of a fixed set parks
  /// the request until a record frees.
  std::uint32_t tags_per_queue = 0;
  /// Pin nonzero IoRequest::stream to queue (stream % nr_queues), so
  /// e.g. commit-critical WAL traffic owns a queue instead of sharing
  /// the round-robin. Stream 0 stays round-robin.
  bool stream_queues = false;
  /// Dispatch batching: up to this many requests enter the device per
  /// doorbell ring (BlockDevice::SubmitBatch). 1 = ring per request.
  std::uint32_t doorbell_batch = 1;
  /// Host CPU cost of one batched doorbell ring (only paid when
  /// doorbell_batch > 1).
  SimTime doorbell_ns = 0;
  /// Completion coalescing: completions accumulate in a per-queue
  /// completion ring and one completion-CPU charge drains up to this
  /// many. 1 = deliver each completion individually (old behaviour).
  std::uint32_t coalesce_depth = 1;
  /// Max time a posted completion may sit in the ring before a flush is
  /// forced (the interrupt-coalescing timeout). 0 with coalesce_depth>1
  /// flushes at the next simulator event boundary (same-instant
  /// batching).
  SimTime coalesce_ns = 0;
  /// Shared device-slot budget across all queues, arbitrated by
  /// deficit-round-robin over qos_weights. 0 = independent per-queue
  /// queue_depth accounting (old behaviour).
  std::uint32_t shared_depth = 0;
  /// Per-queue DRR weight (empty = 1 each; 0 entries clamp to 1 so
  /// every queue with work gets at least one slot per round —
  /// starvation-free by construction).
  std::vector<std::uint32_t> qos_weights;
  /// Scheduler merge policy (per queue): how far from the tail a new
  /// request may back-merge, and whether merging may cross streams.
  std::uint32_t merge_window = 1;
  bool cross_stream_merge = false;
  /// Optional latency-attribution tracer (see trace/). When set and
  /// enabled, every IO's submit CPU, queue wait and completion CPU
  /// become spans on a per-queue "blkq-N" track; when null or disabled
  /// the hot path pays only a pointer test.
  trace::Tracer* tracer = nullptr;
  /// Optional time-series registry (see src/metrics/). When set, the
  /// layer registers queue depth, inflight, CPU busy time and a
  /// windowed latency histogram at construction, plus the same per
  /// queue ("blk.qN.*") when nr_queues > 1; null costs the hot path
  /// only a pointer test.
  metrics::MetricRegistry* metrics = nullptr;
};

/// The Linux-style block layer: software queues feeding a lower
/// BlockDevice, per-IO host CPU costs, completion via interrupt or
/// polling. Stackable — it is itself a BlockDevice.
///
/// This is the layer the paper says "provides too much abstraction in
/// the absence of a simple performance model": every request pays
/// submit+schedule+completion CPU, which caps IOPS once the device
/// itself stops being the bottleneck (E9). The multi-queue path (§3
/// principle 3 — import the networking stack's lessons) splits the
/// submission side into per-context queues with private locks, fixed
/// tag sets for inflight state, batched doorbells, and per-queue
/// completion rings with interrupt coalescing.
class BlockLayer : public BlockDevice {
 public:
  BlockLayer(sim::Simulator* sim, BlockDevice* lower,
             const BlockLayerConfig& config);
  ~BlockLayer() override = default;

  std::uint64_t num_blocks() const override { return lower_->num_blocks(); }
  std::uint32_t block_bytes() const override {
    return lower_->block_bytes();
  }
  /// Block ops enter the software queues, except a supported read,
  /// write or trim outside the device, which completes OutOfRange
  /// without queueing; hints complete here; other ops pass through when
  /// the lower device supports them.
  void Submit(IoRequest request) override;
  const Counters& counters() const { return counters_; }

  /// Every op but a hint is the lower device's to support: block ops
  /// take the queued path, extended ops (atomic groups, nameless
  /// writes) pass through untouched — the block layer cannot add value
  /// to an op it cannot name, which is the paper's point.
  bool Supports(IoOp op) const override;
  /// Migration handling is pure pass-through: this layer adds nothing.
  void SetMigrationHandler(host::MigrationHandler handler) override {
    lower_->SetMigrationHandler(std::move(handler));
  }

  const Histogram& latency() const { return latency_; }
  const IoScheduler& scheduler(std::uint32_t q) const {
    return *queues_[q].scheduler;
  }
  double CpuUtilization() const { return cpu_.Utilization(); }

  /// Simulates power loss / host reset: queued and in-flight requests
  /// are dropped without completing (their IoStates are reclaimed —
  /// scheduler-resident and ring-resident ones immediately, in-flight
  /// ones when their stale completion arrives). Tag waiters are dropped
  /// too.
  void PowerCycle();

  /// IoState accounting, for tests: records ever allocated (across all
  /// queues) and records currently free. Equal when no IO is in flight
  /// — a gap at quiescence means IO state leaked.
  std::size_t io_states_allocated() const;
  std::size_t io_states_free() const;

  /// IOs holding a state record (a tag) on queue q.
  std::size_t tags_in_use(std::uint32_t q) const {
    const sim::RecordPool<IoState>& ios = queues_[q].ios;
    return ios.allocated() - ios.free();
  }
  /// Requests parked waiting for a tag on queue q.
  std::size_t tag_waiters(std::uint32_t q) const {
    return queues_[q].waiters.size();
  }

 private:
  /// Per-IO state, pooled per queue pair. Submission and completion
  /// stage lambdas capture only {this, IoState*}, small enough for
  /// InplaceCallback's inline buffer, so the block layer's hot path
  /// schedules without heap allocation.
  struct IoState {
    SimTime start = 0;
    std::uint64_t epoch = 0;
    std::uint32_t q = 0;
    IoRequest req;
    IoCallback user_cb;
    IoResult result;
    // Trace identity (stable copies — req is moved into the scheduler).
    trace::SpanId span = 0;
    trace::Origin origin = trace::Origin::kMeta;
    bool root = false;  // this layer minted the span -> it records kIo
    Lba lba = 0;
    SimTime complete_t = 0;  // device completion (interrupt/poll start)
    // EIO retry bookkeeping (reads only; req is moved into the
    // scheduler, so the resubmission parameters live here).
    IoOp op = IoOp::kRead;
    std::uint32_t nblocks = 1;
    std::uint8_t priority = 0;
    std::uint8_t attempts = 1;  // total device submissions so far
  };

  struct QueuePair {
    std::unique_ptr<IoScheduler> scheduler;
    /// Serializes scheduler insertion — the single-queue lock whose
    /// contention the paper mentions the Linux community was removing.
    /// Per queue pair, so nr_queues > 1 splits the contention.
    std::unique_ptr<sim::Resource> lock;
    std::uint32_t outstanding = 0;
    /// In-flight IO state records; with tags_per_queue > 0, at most
    /// that many are held at once.
    sim::RecordPool<IoState> ios;
    /// Requests parked on tag exhaustion (fixed tag sets only).
    std::deque<IoRequest> waiters;
    /// Completion ring: device completions awaiting the coalesced
    /// completion-CPU charge.
    std::vector<IoState*> cq_ring;
    bool cq_flush_armed = false;
    std::uint64_t cq_gen = 0;  // invalidates armed flush timers
  };

  IoState* AcquireIo(std::uint32_t q);
  void ReleaseIo(IoState* st);

  std::uint32_t SelectQueue(const IoRequest& request);
  void StartIo(std::uint32_t q, IoRequest request);
  void SubmitToQueue(IoState* st);
  void EnqueueLocked(IoState* st);
  void OnDeviceComplete(IoState* st, const IoResult& result);
  void FlushCq(std::uint32_t q);
  void FinishIo(IoState* st);
  void RetrySubmit(IoState* st);
  /// Dequeues queue q's next request for the device: records its queue
  /// wait, claims a depth slot and wraps its completion with the slot's
  /// release (exactly once per device IO — a merged request's fan-out
  /// runs k per-state wrappers but frees one slot).
  IoRequest TakeNext(std::uint32_t q);
  void DispatchEntry(std::uint32_t q);
  void Dispatch(std::uint32_t q);
  /// Hands a doorbell batch to the device and recycles its buffer.
  void RingDoorbell(std::vector<IoRequest>* batch);
  void DispatchShared();
  std::uint32_t WeightOf(std::uint32_t q) const;

  bool Traced() const { return tracer_ != nullptr && tracer_->enabled(); }

  sim::Simulator* sim_;
  BlockDevice* lower_;
  BlockLayerConfig config_;
  sim::Resource cpu_;
  std::vector<QueuePair> queues_;
  /// Recycled batch buffers: completion rings handed to their CPU charge
  /// (FlushCq swaps a spare in, so the ring keeps a capacity) and
  /// doorbell batches. Several may be waiting on the CPU at once.
  sim::RecordPool<std::vector<IoState*>> cq_batches_;
  sim::RecordPool<std::vector<IoRequest>> doorbell_batches_;
  std::uint64_t rr_ = 0;  // submission queue choice (models per-core)
  std::uint64_t epoch_ = 0;
  // Shared-depth DRR arbitration state (shared_depth > 0 only).
  DrrArbiter drr_;
  std::uint32_t shared_outstanding_ = 0;
  Histogram latency_;
  Counters counters_;
  trace::Tracer* tracer_;
  std::vector<std::uint32_t> q_tracks_;  // "blkq-N" per queue pair

  // Latency windows; counted events are polled from counters_.
  metrics::MetricRegistry* metrics_ = nullptr;
  metrics::Id m_lat_ = metrics::kInvalidId;
  std::vector<metrics::Id> m_q_lat_;  // per queue, when nr_queues > 1
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_BLOCK_LAYER_H_
