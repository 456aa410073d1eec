#include "blocklayer/direct_driver.h"

#include <utility>

namespace postblock::blocklayer {

DirectDriver::DirectDriver(sim::Simulator* sim, BlockDevice* lower)
    : sim_(sim), lower_(lower), cpu_res_(sim, "direct-cpu", kCores) {}

void DirectDriver::Submit(IoRequest request) {
  if (!IsBlockOp(request.op)) {
    RouteNonBlockOp(std::move(request), lower_, &counters_);
    return;
  }
  counters_.Increment("submitted");
  SubmitAttempt(std::move(request), sim_->Now(), 1);
}

void DirectDriver::SubmitAttempt(IoRequest request, SimTime start,
                                 std::uint32_t attempt) {
  const std::uint64_t epoch = epoch_;
  IoCallback user_cb = std::move(request.on_complete);
  // Resubmission parameters, captured before `request` is moved below.
  const IoOp op = request.op;
  const Lba lba = request.lba;
  const std::uint32_t nblocks = request.nblocks;
  const std::uint8_t priority = request.priority;
  const trace::SpanId span = request.span;
  request.on_complete = [this, start, epoch, op, lba, nblocks, priority,
                         span, attempt, user_cb = std::move(user_cb)](
                            const IoResult& result) mutable {
    if (epoch != epoch_) return;
    // EIO retry: a read that still fails after the device's internal
    // ladder gets a bounded, backed-off resubmission (full attempt,
    // including submit CPU — the user-space driver really re-polls).
    if (op == IoOp::kRead && result.status.IsDataLoss() &&
        attempt < kEioMaxAttempts) {
      counters_.Increment("eio_retries");
      IoRequest r;
      r.op = op;
      r.lba = lba;
      r.nblocks = nblocks;
      r.priority = priority;
      r.span = span;
      r.on_complete = std::move(user_cb);
      sim_->Schedule(kEioBackoffNs << (attempt - 1),
                     [this, start, attempt, r = std::move(r)]() mutable {
                       SubmitAttempt(std::move(r), start, attempt + 1);
                     });
      return;
    }
    if (!result.status.ok()) counters_.Increment("io_errors");
    cpu_res_.UseFor(kCpu.polled_ns,
                    [this, start, epoch, user_cb = std::move(user_cb),
                     result]() {
                      if (epoch != epoch_) return;
                      latency_.Record(sim_->Now() - start);
                      counters_.Increment("completed");
                      if (user_cb) user_cb(result);
                    });
  };
  cpu_res_.UseFor(kCpu.submit_ns,
                  [this, epoch, request = std::move(request)]() mutable {
                    if (epoch != epoch_) return;
                    lower_->Submit(std::move(request));
                  });
}

bool DirectDriver::Supports(IoOp op) const {
  return op == IoOp::kHint || lower_->Supports(op);
}

void DirectDriver::RegisterMetrics(metrics::MetricRegistry* m) {
  m->AddPolledCounter("direct.submitted",
                      [this] { return counters_.Get("submitted"); });
  m->AddPolledCounter("direct.completed",
                      [this] { return counters_.Get("completed"); });
  m->AddPolledCounter("direct.cpu_busy_ns",
                      [this] { return cpu_res_.busy_ns(); });
  m->AddGauge("direct.inflight", [this] {
    // Submitted-but-not-completed; exact because both counters advance
    // only in sim callbacks.
    return static_cast<double>(counters_.Get("submitted") -
                               counters_.Get("completed"));
  });
}

}  // namespace postblock::blocklayer
