#ifndef POSTBLOCK_HOST_COMMAND_H_
#define POSTBLOCK_HOST_COMMAND_H_

#include <cstdint>
#include <functional>

#include "blocklayer/request.h"

namespace postblock::host {

/// Capability-discovery answer (host::HostInterface::Caps): everything
/// a host needs to decide how to drive the stack, without reading the
/// device's construction-time config — the post-block analogue of an
/// NVMe Identify. Layers forward the call down and OR in what they add
/// themselves (e.g. HybridStore's PCM sync path).
struct DeviceCaps {
  /// Per-op support, same bit layout as CapabilityMask().
  std::uint32_t command_mask = 0;
  /// Multi-extent atomic write groups execute natively.
  bool atomic_groups = false;
  /// Nameless write/read/free execute natively.
  bool nameless = false;
  /// Advisory hints are accepted (possibly ignored) rather than failed.
  bool hint_classes = false;
  /// Synchronous byte-granular persistence bypassing the block path
  /// (a PCM log behind SyncPersist) exists in this stack.
  bool pcm_sync = false;
  /// Physical-append mode: > 0 means the device runs host-managed
  /// regions (this many independent append points), keeps no L2P for
  /// them, and never garbage-collects host-managed pages on its own —
  /// the post-block device of the paper's Section 3.
  std::uint32_t append_regions = 0;
  /// Device-side mapping-table DRAM right now, in bytes. The crossover
  /// study's third axis: a full page-map FTL pays 8 B per logical page;
  /// an append-mode device pays per-block bookkeeping only.
  std::uint64_t mapping_table_bytes = 0;

  bool Supports(blocklayer::IoOp op) const {
    return (command_mask >> static_cast<int>(op)) & 1u;
  }
};

/// Fired when the device relocates a host-managed page (refresh of a
/// decaying block, cooperative migration): (old name, new name). The
/// host updates its mapping; a read in flight under the old name
/// returns NotFound and is retried under the new one.
using MigrationHandler =
    std::function<void(std::uint64_t, std::uint64_t)>;

/// The unified host-facing interface: one request type
/// (blocklayer::IoRequest), one entry point (`Submit`), and capability
/// discovery. Every stackable layer in the repo (the SSD device, the
/// block layer, the direct driver, the vbd frontend, the HDD, simple
/// devices, db::HostMap and core::HybridStore) implements it, so a host
/// program is written once against `Submit`/`Supports` and wired over
/// any stack. The block interface is not a second API: it is the subset
/// {read, write, trim, flush} of IoOp that a stack reports through
/// `Supports`.
///
/// Contract: `Submit` must complete `request.on_complete` exactly once
/// (in simulated time for accepted requests; an op the stack does not
/// support completes Unimplemented — callers that care should check
/// `Supports` first, which is the point of capability discovery). A
/// layer that forwards an op answers `Supports` for it from the layer
/// below, so the answer always matches what a submission does.
class HostInterface {
 public:
  virtual ~HostInterface() = default;

  /// Can this stack execute `op`?
  virtual bool Supports(blocklayer::IoOp op) const = 0;

  /// Submits one asynchronous request.
  virtual void Submit(blocklayer::IoRequest request) = 0;

  /// Capability discovery. The default derives everything derivable
  /// from Supports(); devices with richer truths (append regions,
  /// mapping DRAM) and layers that add capabilities of their own
  /// (HybridStore's PCM sync path) override or extend it. Hosts call
  /// this instead of reading device configs.
  virtual DeviceCaps Caps() const {
    DeviceCaps caps;
    caps.command_mask = CapabilityMask();
    caps.atomic_groups = caps.Supports(blocklayer::IoOp::kAtomicGroup);
    caps.nameless = caps.Supports(blocklayer::IoOp::kNamelessWrite) &&
                    caps.Supports(blocklayer::IoOp::kNamelessRead) &&
                    caps.Supports(blocklayer::IoOp::kNamelessFree);
    caps.hint_classes = caps.Supports(blocklayer::IoOp::kHint);
    return caps;
  }

  /// Installs the host's migration handler for named pages. Stacked
  /// layers forward it to the device; the default drops it (a stack
  /// with no nameless support has nothing to migrate).
  virtual void SetMigrationHandler(MigrationHandler handler) {
    (void)handler;
  }

  /// Capability bitmask (bit = static_cast<int>(IoOp)).
  std::uint32_t CapabilityMask() const {
    std::uint32_t mask = 0;
    for (std::size_t k = 0; k < blocklayer::kNumIoOps; ++k) {
      if (Supports(static_cast<blocklayer::IoOp>(k))) mask |= 1u << k;
    }
    return mask;
  }
};

}  // namespace postblock::host

#endif  // POSTBLOCK_HOST_COMMAND_H_
