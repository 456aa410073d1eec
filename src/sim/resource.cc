#include "sim/resource.h"

#include <cassert>
#include <utility>

namespace postblock::sim {

Resource::Resource(Simulator* sim, std::string name, int capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  assert(capacity_ >= 1);
}

Resource::~Resource() = default;

void Resource::AccrueBusy() const {
  busy_ns_ +=
      static_cast<std::uint64_t>(in_use_) * (sim_->Now() - busy_since_);
  busy_since_ = sim_->Now();
}

void Resource::Acquire(Grant on_grant) {
  if (in_use_ < capacity_) {
    AccrueBusy();
    ++in_use_;
    wait_hist_.Record(0);
    on_grant();
    return;
  }
  waiters_.push_back(Waiter{std::move(on_grant), sim_->Now()});
}

void Resource::Release() {
  assert(in_use_ > 0);
  AccrueBusy();
  if (!waiters_.empty()) {
    // Hand the slot directly to the next waiter without ever marking it
    // free: a new Acquire arriving before the grant event fires must
    // queue behind existing waiters (strict FCFS), not jump in. Each
    // release schedules its own zero-delay grant — the same one event
    // per handoff the heap-based core produced, so two releases at one
    // timestamp stay interleaved with whatever else was scheduled
    // between them. Parking the waiter in ready_ (instead of capturing
    // it) keeps the event's capture to `this` — inline, no allocation —
    // and keeps long grant chains iterative.
    ready_.push_back(waiters_.pop_front());
    sim_->Schedule(0, [this] { GrantNextReady(); });
    return;
  }
  --in_use_;
}

void Resource::GrantNextReady() {
  // Exactly one grant event is in flight per ready_ entry, and events
  // fire in schedule order, so the front entry is this event's waiter.
  GrantTo(ready_.pop_front());
}

void Resource::GrantTo(Waiter w) {
  // The slot was carried over from the releasing holder; in_use_ is
  // already counted.
  wait_hist_.Record(sim_->Now() - w.enqueued_at);
  w.grant();
}

void Resource::UseFor(SimTime duration, InplaceCallback done) {
  UseOp* op = use_ops_.Acquire();
  op->res = this;
  op->duration = duration;
  op->done = std::move(done);
  auto grant = [op] {
    op->res->sim_->Schedule(op->duration, [op] {
      Resource* res = op->res;
      InplaceCallback cb = std::move(op->done);
      res->use_ops_.Release(op);
      res->Release();
      cb();
    });
  };
  static_assert(InplaceCallback::fits<decltype(grant)>());
  Acquire(grant);
}

std::uint64_t Resource::busy_ns() const {
  AccrueBusy();
  return busy_ns_;
}

double Resource::Utilization() const {
  if (sim_->Now() == 0) return 0.0;
  AccrueBusy();
  return static_cast<double>(busy_ns_) /
         (static_cast<double>(capacity_) *
          static_cast<double>(sim_->Now()));
}

}  // namespace postblock::sim
