#ifndef POSTBLOCK_BLOCKLAYER_IO_SCHEDULER_H_
#define POSTBLOCK_BLOCKLAYER_IO_SCHEDULER_H_

#include <cstdint>
#include <memory>

#include "blocklayer/request.h"
#include "common/stats.h"
#include "sim/pool.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "trace/tracer.h"

namespace postblock::blocklayer {

/// Software-queue policy of the block layer.
enum class SchedulerKind {
  kNoop = 0,  // FIFO dispatch
  kMerge,     // FIFO + back-merge of contiguous same-op requests
  kPriority,  // higher IoRequest::priority first, FIFO within a class
};

const char* SchedulerKindName(SchedulerKind kind);

/// Per-queue scheduling policy knobs.
struct IoSchedulerConfig {
  SchedulerKind kind = SchedulerKind::kNoop;
  /// How many queued requests (from the tail) a new request may merge
  /// into. 1 = the classic tail-only back-merge. A wider window lets a
  /// request coalesce past unrelated interleaved traffic.
  std::uint32_t merge_window = 1;
  /// Whether requests from different streams may merge. Off by default:
  /// two interleaved streams that happen to abut in LBA space are
  /// distinct IOs with distinct fates (QoS, completion attribution),
  /// not one.
  bool cross_stream_merge = false;
};

/// A single software request queue. Requests enter via Enqueue and leave
/// via Dequeue in dispatch order; the merge scheduler coalesces a newly
/// enqueued request into a queued request that it extends contiguously
/// (the classic elevator back-merge, minus disk-oriented sorting — the
/// paper notes sorting lost its purpose on SSDs). The merge window is
/// explicit per queue (IoSchedulerConfig::merge_window) and merging
/// never crosses stream boundaries unless configured to.
///
/// The queue is a recycled ring and each merge's completion fan-out is a
/// pooled record whose per-submitter results keep their token capacity,
/// so a queue in steady state never touches the allocator.
class IoScheduler {
 public:
  explicit IoScheduler(IoSchedulerConfig config);
  explicit IoScheduler(SchedulerKind kind);

  /// Takes ownership of the request. Merged requests complete their
  /// original callbacks individually when the merged IO completes.
  void Enqueue(IoRequest request);

  bool empty() const { return queue_.empty(); }
  std::size_t depth() const { return queue_.size(); }

  /// Pops the next request to dispatch. Requires !empty().
  IoRequest Dequeue();

  const Counters& counters() const { return counters_; }
  const IoSchedulerConfig& config() const { return config_; }

  /// Back-merges become zero-duration markers on `track` (arg = merged
  /// request's LBA, span = the absorbed request's span), so a trace
  /// shows which IOs were coalesced away.
  void set_tracer(trace::Tracer* tracer, std::uint32_t track,
                  sim::Simulator* sim) {
    tracer_ = tracer;
    track_ = track;
    sim_ = sim;
  }

 private:
  /// One merge's completion fan-out: the merged IO's completion splits
  /// its tokens between the head's callback (the first `head_blocks`)
  /// and the absorbed request's (the rest). Chained merges nest: `head`
  /// may itself be an earlier merge's fan-out.
  struct Fanout {
    IoCallback head;
    IoCallback rest;
    std::uint32_t head_blocks = 0;
    IoResult head_result;
    IoResult rest_result;
  };

  /// Attempts a back-merge of `request` into a request within the merge
  /// window. Returns true when absorbed.
  bool TryMerge(IoRequest& request);
  void FanOut(Fanout* f, const IoResult& result);

  IoSchedulerConfig config_;
  sim::Ring<IoRequest> queue_;
  sim::RecordPool<Fanout> fanouts_;
  Counters counters_;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  sim::Simulator* sim_ = nullptr;
};

inline const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNoop:
      return "noop";
    case SchedulerKind::kMerge:
      return "merge";
    case SchedulerKind::kPriority:
      return "priority";
  }
  return "?";
}

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_IO_SCHEDULER_H_
