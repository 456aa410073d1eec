#ifndef POSTBLOCK_SIM_RESOURCE_H_
#define POSTBLOCK_SIM_RESOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace postblock::sim {

/// A FCFS-shared resource with `capacity` concurrent slots (default 1).
/// Models a flash channel bus, a LUN (serial command execution), a CPU
/// core, etc. Tracks utilization so benches can tell *which* resource
/// bound a workload (the paper's channel-bound vs chip-bound
/// distinction, Figure 1).
///
/// Grants are InplaceCallback (no heap traffic for pointer-sized
/// captures) and waiters live in recycled ring buffers. Each release
/// hands its slot to the next waiter via its own zero-delay grant event
/// — one event per handoff, exactly the heap-core event shape, so
/// releases at the same timestamp stay interleaved with unrelated
/// events scheduled between them. The carried waiter parks in a ready
/// ring so the grant event captures only `this` and stays inline.
class Resource {
 public:
  using Grant = InplaceCallback;

  Resource(Simulator* sim, std::string name, int capacity = 1);
  ~Resource();

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Requests a slot. `on_grant` runs as soon as a slot is available —
  /// synchronously if one is free now, otherwise when a holder releases.
  void Acquire(Grant on_grant);

  /// Releases one held slot. If waiters are queued, the slot is carried
  /// directly to the next one (never marked free — strict FCFS) and
  /// granted by a zero-delay event scheduled by this release.
  void Release();

  /// Convenience: acquire, hold for `duration`, release, then run `done`.
  /// Per-call state lives in a pooled record, so the scheduling lambdas
  /// capture a single pointer and stay inline in the event queue.
  void UseFor(SimTime duration, InplaceCallback done);

  int in_use() const { return in_use_; }
  std::size_t queue_length() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  /// Total slot-nanoseconds the resource was held.
  std::uint64_t busy_ns() const;
  /// Fraction of [0, Now()] the resource was busy (capacity-weighted).
  double Utilization() const;

 private:
  struct UseOp {
    Resource* res = nullptr;
    SimTime duration = 0;
    InplaceCallback done;
  };

  void GrantNextReady();

  Simulator* sim_;
  std::string name_;
  int capacity_;
  int in_use_ = 0;
  Ring<Grant> waiters_;
  /// Waiters whose slot has been carried over by Release(), each
  /// awaiting its own grant event. Granted strictly in release order
  /// (one event per entry, scheduled by the release that carried it).
  Ring<Grant> ready_;

  RecordPool<UseOp> use_ops_;

  mutable std::uint64_t busy_ns_ = 0;
  mutable SimTime busy_since_ = 0;  // last time in_use_ changed

  void AccrueBusy() const;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_RESOURCE_H_
