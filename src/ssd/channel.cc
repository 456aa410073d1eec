#include "ssd/channel.h"

namespace postblock::ssd {

Channel::Channel(sim::Simulator* sim, std::uint32_t index,
                 const flash::Timing& timing, std::uint32_t page_bytes)
    : index_(index),
      transfer_ns_(timing.TransferNs(page_bytes)),
      cmd_ns_(timing.cmd_ns),
      sim_(sim),
      bus_(sim, "channel-" + std::to_string(index)) {}

void Channel::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    track_ = tracer_->RegisterTrack(trace::kPidFlash,
                                    "channel-" + std::to_string(index_));
  }
}

void Channel::TimedUse(SimTime duration, trace::Ctx ctx,
                       sim::InplaceCallback done) {
  BusOp* op = bus_ops_.Acquire();
  op->ch = this;
  op->duration = duration;
  op->ctx = ctx;
  op->done = std::move(done);
  op->wait_start = sim_->Now();
  op->gc_mark = gc_busy_.Total(op->wait_start);
  auto grant = [op] { op->ch->OnBusGrant(op); };
  static_assert(sim::InplaceCallback::fits<decltype(grant)>());
  bus_.Acquire(grant);
}

void Channel::OnBusGrant(BusOp* op) {
  const SimTime now = sim_->Now();
  const std::uint64_t wait = now - op->wait_start;
  if (wait > 0) {
    // The GC share of this wait = how long GC-origin work held the bus
    // while we queued (exact for the capacity-1 bus).
    std::uint64_t gc_part = gc_busy_.Total(now) - op->gc_mark;
    if (gc_part > wait) gc_part = wait;
    if (op->ctx.origin == trace::Origin::kHostRead) {
      gc_stall_read_ns_ += gc_part;
    } else if (op->ctx.origin == trace::Origin::kHostWrite) {
      gc_stall_write_ns_ += gc_part;
    }
    if (tracer_ != nullptr && tracer_->enabled() && op->ctx.span != 0) {
      const SimTime split = now - gc_part;
      if (split > op->wait_start) {
        tracer_->Record(trace::Stage::kQueueWait, op->ctx.origin,
                        op->ctx.span, op->ctx.parent, track_,
                        op->wait_start, split);
      }
      if (gc_part > 0) {
        tracer_->Record(trace::Stage::kGcStall, op->ctx.origin,
                        op->ctx.span, op->ctx.parent, track_, split, now);
      }
    }
  }
  if (trace::IsGcOrigin(op->ctx.origin)) gc_busy_.Enter(now);
  auto finish = [op] { op->ch->FinishBusOp(op); };
  static_assert(sim::InplaceCallback::fits<decltype(finish)>());
  sim_->Schedule(op->duration, finish);
}

void Channel::FinishBusOp(BusOp* op) {
  const SimTime now = sim_->Now();
  if (tracer_ != nullptr && tracer_->enabled() && op->ctx.span != 0) {
    tracer_->Record(trace::Stage::kTransfer, op->ctx.origin, op->ctx.span,
                    op->ctx.parent, track_, now - op->duration, now);
  }
  if (trace::IsGcOrigin(op->ctx.origin)) gc_busy_.Exit(now);
  sim::InplaceCallback cb = std::move(op->done);
  bus_ops_.Release(op);
  bus_.Release();
  cb();
}

}  // namespace postblock::ssd
