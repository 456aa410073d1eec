#ifndef POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_
#define POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "blocklayer/request.h"
#include "host/command.h"

namespace postblock::blocklayer {

/// The block device interface the paper argues must die: a flat array of
/// fixed-size logical blocks accepting asynchronous read/write (plus the
/// retrofitted trim/flush). Implemented by the simulated SSD, the HDD
/// model, and simple fixed-latency devices.
///
/// Every BlockDevice is also a host::HostInterface: the typed
/// `Execute(host::Command)` is the unified host-facing entry point, and
/// `Submit(IoRequest)` remains as the thin untyped adapter underneath
/// it (existing callers and tests compile unchanged). Block-expressible
/// commands lower onto Submit; devices that natively speak the extended
/// kinds (atomic groups, nameless writes, hints) override Execute and
/// Supports — capability discovery is how a host finds out.
class BlockDevice : public host::HostInterface {
 public:
  ~BlockDevice() override = default;

  /// Number of addressable logical blocks.
  virtual std::uint64_t num_blocks() const = 0;
  /// Logical block size in bytes.
  virtual std::uint32_t block_bytes() const = 0;

  /// Submits one asynchronous request. The completion callback fires in
  /// simulated time; it must always fire exactly once.
  virtual void Submit(IoRequest request) = 0;

  /// Batched doorbell submission: all requests were made visible to the
  /// device by one doorbell ring. The device moves every request out of
  /// `batch`; the caller keeps the buffer (and its capacity) for its next
  /// ring. The default lowers to per-request Submit (a device with no
  /// doorbell model); the simulated SSD overrides it to amortize
  /// admission across the batch.
  virtual void SubmitBatch(std::vector<IoRequest>& batch) {
    for (IoRequest& r : batch) Submit(std::move(r));
  }

  /// host::HostInterface — block-expressible commands lower onto
  /// Submit; hints are advisory (accepted and dropped); anything else
  /// completes Unimplemented inline (check Supports first).
  void Execute(host::Command cmd) override {
    if (host::IsBlockExpressible(cmd.kind)) {
      Submit(host::LowerToIoRequest(std::move(cmd)));
      return;
    }
    if (cmd.kind == host::CommandKind::kHint) {
      if (cmd.on_complete) cmd.on_complete(IoResult{Status::Ok(), {}});
      return;
    }
    if (cmd.on_complete) {
      cmd.on_complete(IoResult{
          Status::Unimplemented("command kind not supported by this"
                                " device"),
          {}});
    }
  }

  bool Supports(host::CommandKind kind) const override {
    return host::IsBlockExpressible(kind) ||
           kind == host::CommandKind::kHint;
  }
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_
