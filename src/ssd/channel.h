#ifndef POSTBLOCK_SSD_CHANNEL_H_
#define POSTBLOCK_SSD_CHANNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "flash/timing.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::ssd {

/// A flash channel: the shared command/data bus connecting the
/// controller to the LUNs of one channel. Transfers serialize here —
/// this is the resource that makes reads "channel-bound" in Figure 1.
///
/// Each timed bus use carries a trace::Ctx so bus occupancy lands on
/// the channel's trace track and bus waits can be split into plain
/// queueing vs GC-induced stall (a BusyClock integrates how long
/// GC-origin work held the bus; the overlap with a host op's wait is
/// exactly the GC share of its delay). The per-origin stall counters
/// are always on; event recording costs one predicted branch when the
/// tracer is off.
class Channel {
 public:
  Channel(sim::Simulator* sim, std::uint32_t index,
          const flash::Timing& timing, std::uint32_t page_bytes);

  /// Occupies the bus for one page data transfer + command cycles, then
  /// runs `done`.
  void Transfer(trace::Ctx ctx, sim::InplaceCallback done) {
    TimedUse(transfer_ns_, ctx, std::move(done));
  }
  void Transfer(sim::InplaceCallback done) {
    TimedUse(transfer_ns_, trace::Ctx{}, std::move(done));
  }

  /// Occupies the bus for command/address cycles only (erase dispatch).
  void Command(trace::Ctx ctx, sim::InplaceCallback done) {
    TimedUse(cmd_ns_, ctx, std::move(done));
  }
  void Command(sim::InplaceCallback done) {
    TimedUse(cmd_ns_, trace::Ctx{}, std::move(done));
  }

  std::uint32_t index() const { return index_; }
  sim::Resource* resource() { return &bus_; }
  double Utilization() const { return bus_.Utilization(); }

  /// Attaches the tracer and registers this channel's trace track.
  void set_tracer(trace::Tracer* tracer);

  /// Bus wait attributable to GC/WL bus occupancy, by victim origin.
  std::uint64_t gc_stall_read_ns() const { return gc_stall_read_ns_; }
  std::uint64_t gc_stall_write_ns() const { return gc_stall_write_ns_; }

  /// Cumulative bus time held by GC/WL-origin work as of `now`
  /// (BusyClock integral; safe to poll mid-run).
  std::uint64_t gc_busy_ns(SimTime now) const {
    return gc_busy_.Total(now);
  }

 private:
  /// Per-use state, pooled like Resource::UseOp so the scheduling
  /// lambdas capture one pointer and stay inline in the event queue.
  struct BusOp {
    Channel* ch = nullptr;
    SimTime duration = 0;
    SimTime wait_start = 0;
    std::uint64_t gc_mark = 0;
    trace::Ctx ctx;
    sim::InplaceCallback done;
  };

  /// Acquire the bus, hold for `duration`, release, run `done` — the
  /// exact event shape of Resource::UseFor (one grant handoff event per
  /// release, duration event capturing only the BusOp pointer), with
  /// attribution folded into the grant and completion.
  void TimedUse(SimTime duration, trace::Ctx ctx,
                sim::InplaceCallback done);
  void OnBusGrant(BusOp* op);
  void FinishBusOp(BusOp* op);

  std::uint32_t index_;
  SimTime transfer_ns_;
  SimTime cmd_ns_;
  sim::Simulator* sim_;
  sim::Resource bus_;

  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  trace::BusyClock gc_busy_;
  std::uint64_t gc_stall_read_ns_ = 0;
  std::uint64_t gc_stall_write_ns_ = 0;

  sim::RecordPool<BusOp> bus_ops_;
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_CHANNEL_H_
