#ifndef POSTBLOCK_VBD_FRONTEND_H_
#define POSTBLOCK_VBD_FRONTEND_H_

#include <cstdint>
#include <string>

#include "blocklayer/block_device.h"
#include "vbd/vbd.h"

namespace postblock::vbd {

class Backend;

/// What a tenant holds: its own virtual block device. A Frontend is a
/// full blocklayer::BlockDevice over the tenant's private LBA namespace
/// [0, capacity_blocks), so every existing driver in the repo — the
/// workload patterns, RunClosedLoop, the DB storage manager — runs over
/// a tenant unchanged. Submission crosses to the Backend, which
/// translates, enforces bounds and quota, applies QoS admission and
/// multiplexes onto the one lower device.
///
/// A tenant's IOs are counted once, in its `TenantStats`; the Backend's
/// `Counters` hold the backend-wide totals. A Frontend keeps no
/// `Counters` of its own.
///
/// Frontends are owned by their Backend and stay valid after the tenant
/// is destroyed: a stale handle's submissions complete with Unavailable
/// (the epoch check), and its stats stay readable as a frozen record —
/// a recreated tenant in the same slot gets a fresh Frontend.
class Frontend : public blocklayer::BlockDevice {
 public:
  std::uint64_t num_blocks() const override { return capacity_; }
  std::uint32_t block_bytes() const override { return block_bytes_; }
  /// Block ops the device below supports cross to the Backend; a hint
  /// completes here and every other op completes Unimplemented (a
  /// tenant namespace is block-only).
  void Submit(blocklayer::IoRequest request) override;
  /// The block ops the device below the Backend supports, and hints.
  bool Supports(blocklayer::IoOp op) const override;

  TenantId id() const { return id_; }
  std::uint64_t epoch() const { return epoch_; }
  const std::string& name() const { return name_; }
  /// Current lifecycle state; kDestroyed once the handle is stale.
  TenantState state() const;

  const TenantStats& stats() const { return stats_; }
  /// Distinct written (quota-charged) blocks right now.
  std::uint64_t quota_used() const;
  std::uint64_t quota_blocks() const { return quota_; }

 private:
  friend class Backend;
  Frontend(Backend* backend, TenantId id, std::uint64_t epoch,
           std::string name, std::uint64_t capacity,
           std::uint64_t quota, std::uint32_t block_bytes)
      : backend_(backend),
        id_(id),
        epoch_(epoch),
        name_(std::move(name)),
        capacity_(capacity),
        quota_(quota),
        block_bytes_(block_bytes) {}

  Backend* backend_;
  TenantId id_;
  std::uint64_t epoch_;
  std::string name_;
  std::uint64_t capacity_;
  std::uint64_t quota_;
  std::uint32_t block_bytes_;
  TenantStats stats_;
};

}  // namespace postblock::vbd

#endif  // POSTBLOCK_VBD_FRONTEND_H_
