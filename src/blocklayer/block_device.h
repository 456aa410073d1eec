#ifndef POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_
#define POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "blocklayer/request.h"
#include "common/stats.h"
#include "host/command.h"

namespace postblock::blocklayer {

/// The block device interface the paper argues must die: a flat array of
/// fixed-size logical blocks accepting asynchronous read/write (plus the
/// retrofitted trim/flush). Implemented by the simulated SSD, the HDD
/// model, simple fixed-latency devices and every layer stacked on them.
///
/// A BlockDevice is a host::HostInterface with a logical address space;
/// its block ops are the subset of IoOp it reports through `Supports`.
/// The default answer is the block ops plus advisory hints. Devices
/// that natively speak the extended ops (atomic groups, nameless
/// writes) and layers that forward ops override it — capability
/// discovery is how a host finds out.
class BlockDevice : public host::HostInterface {
 public:
  ~BlockDevice() override = default;

  /// Number of addressable logical blocks.
  virtual std::uint64_t num_blocks() const = 0;
  /// Logical block size in bytes.
  virtual std::uint32_t block_bytes() const = 0;

  /// Batched doorbell submission: all requests were made visible to the
  /// device by one doorbell ring. The device moves every request out of
  /// `batch`; the caller keeps the buffer (and its capacity) for its next
  /// ring. The default lowers to per-request Submit (a device with no
  /// doorbell model); the simulated SSD overrides it to amortize
  /// admission across the batch.
  virtual void SubmitBatch(std::vector<IoRequest>& batch) {
    for (IoRequest& r : batch) Submit(std::move(r));
  }

  bool Supports(IoOp op) const override {
    return IsBlockOp(op) || op == IoOp::kHint;
  }

 protected:
  /// Routes an op the caller's block path does not take, inline: a hint
  /// completes Ok (counted as "hints" when `counters` is set); any other
  /// op passes through to `lower` when it supports it (counted as
  /// "passthrough_cmds"), and completes Unimplemented otherwise. Leaf
  /// devices call it with no lower layer, mid-layers with theirs.
  static void RouteNonBlockOp(IoRequest request,
                              host::HostInterface* lower = nullptr,
                              Counters* counters = nullptr) {
    if (request.op == IoOp::kHint) {
      if (counters != nullptr) counters->Increment("hints");
      if (request.on_complete) {
        request.on_complete(IoResult{Status::Ok(), {}});
      }
      return;
    }
    if (lower != nullptr && lower->Supports(request.op)) {
      if (counters != nullptr) counters->Increment("passthrough_cmds");
      lower->Submit(std::move(request));
      return;
    }
    if (request.on_complete) {
      request.on_complete(IoResult{
          Status::Unimplemented("op not supported by this stack"), {}});
    }
  }
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_BLOCK_DEVICE_H_
