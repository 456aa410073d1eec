#include "blocklayer/io_scheduler.h"

#include <algorithm>
#include <utility>

namespace postblock::blocklayer {

namespace {
// Cap on a merged request's total span.
constexpr std::uint32_t kMaxMergedBlocks = 128;
}  // namespace

IoScheduler::IoScheduler(IoSchedulerConfig config) : config_(config) {}

IoScheduler::IoScheduler(SchedulerKind kind)
    : IoScheduler(IoSchedulerConfig{kind}) {}

bool IoScheduler::TryMerge(IoRequest& request) {
  if (config_.kind != SchedulerKind::kMerge || queue_.empty()) return false;
  if (request.op != IoOp::kRead && request.op != IoOp::kWrite) return false;
  std::uint32_t scanned = 0;
  for (std::size_t i = queue_.size();
       i > 0 && scanned < config_.merge_window; --i, ++scanned) {
    IoRequest& tail = queue_[i - 1];
    if (tail.op != request.op) continue;
    if (!config_.cross_stream_merge && tail.stream != request.stream) {
      counters_.Increment("merge_stream_rejects");
      continue;
    }
    // The tail must end exactly where the request starts, without its
    // extent wrapping past LBA 2^64 - 1.
    if (!ExtentInRange(tail.lba, tail.nblocks, request.lba) ||
        tail.lba + tail.nblocks != request.lba) {
      continue;
    }
    if (tail.nblocks + request.nblocks > kMaxMergedBlocks) continue;
    counters_.Increment("back_merges");
    if (tracer_ != nullptr && tracer_->enabled() && sim_ != nullptr) {
      tracer_->Mark(trace::Stage::kSchedule, OriginOf(request.op),
                    request.span, track_, sim_->Now(), request.lba);
    }
    // Chain the completions: both submitters hear about the merged IO.
    Fanout* f = fanouts_.Acquire();
    f->head_blocks = tail.nblocks;
    tail.nblocks += request.nblocks;
    for (auto t : request.tokens) tail.tokens.push_back(t);
    f->head = std::move(tail.on_complete);
    f->rest = std::move(request.on_complete);
    tail.on_complete = [this, f](const IoResult& result) {
      FanOut(f, result);
    };
    return true;
  }
  return false;
}

void IoScheduler::FanOut(Fanout* f, const IoResult& result) {
  const std::size_t split =
      std::min<std::size_t>(result.tokens.size(), f->head_blocks);
  if (f->head) {
    f->head_result.status = result.status;
    f->head_result.tokens.assign(result.tokens.begin(),
                                 result.tokens.begin() + split);
    f->head(f->head_result);
  }
  if (f->rest) {
    f->rest_result.status = result.status;
    f->rest_result.tokens.assign(result.tokens.begin() + split,
                                 result.tokens.end());
    f->rest(f->rest_result);
  }
  f->head = nullptr;
  f->rest = nullptr;
  fanouts_.Release(f);
}

void IoScheduler::Enqueue(IoRequest request) {
  counters_.Increment("enqueued");
  if (TryMerge(request)) return;
  queue_.push_back(std::move(request));
}

IoRequest IoScheduler::Dequeue() {
  std::size_t pick = 0;
  if (config_.kind == SchedulerKind::kPriority) {
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      // Strictly greater: FIFO within a priority class.
      if (queue_[i].priority > queue_[pick].priority) pick = i;
    }
    if (queue_[pick].priority > 0) counters_.Increment("priority_dispatches");
  }
  IoRequest r = queue_.erase(pick);
  counters_.Increment("dispatched");
  return r;
}

}  // namespace postblock::blocklayer
