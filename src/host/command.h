#ifndef POSTBLOCK_HOST_COMMAND_H_
#define POSTBLOCK_HOST_COMMAND_H_

#include <cstdint>
#include <functional>

#include "blocklayer/request.h"

namespace postblock::host {

/// Fired when the device relocates a host-managed page (refresh of a
/// decaying block, cooperative migration): (old name, new name). The
/// host updates its mapping; a read in flight under the old name
/// returns NotFound and is retried under the new one.
using MigrationHandler =
    std::function<void(std::uint64_t, std::uint64_t)>;

/// The unified host-facing interface: one request type
/// (blocklayer::IoRequest), one entry point (`Submit`), and capability
/// discovery (`Supports`). Every stackable layer in the repo (the SSD
/// device, the block layer, the direct driver, the vbd frontend, the
/// HDD, simple devices and db::HostMap) implements it, so a host
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

  /// Installs the host's migration handler for named pages. Stacked
  /// layers forward it to the device; the default drops it (a stack
  /// with no nameless support has nothing to migrate).
  virtual void SetMigrationHandler(MigrationHandler handler) {
    (void)handler;
  }
};

}  // namespace postblock::host

#endif  // POSTBLOCK_HOST_COMMAND_H_
