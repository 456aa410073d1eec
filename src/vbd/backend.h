#ifndef POSTBLOCK_VBD_BACKEND_H_
#define POSTBLOCK_VBD_BACKEND_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocklayer/block_device.h"
#include "blocklayer/drr.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "metrics/metrics.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "trace/tracer.h"
#include "vbd/frontend.h"
#include "vbd/vbd.h"

namespace postblock::vbd {

/// The multiplexer half of the blkif-style split (SNIPPETS.md 1-2): one
/// Backend serves many tenant Frontends over a single lower
/// BlockDevice. Per tenant it owns
///
///   - the namespace: a contiguous extent of the lower LBA space,
///     allocated at create, coalesced back into a free list at destroy
///     (destroy-then-recreate reuses the space); every IO is bounds
///     checked and translated — out-of-namespace access completes with
///     OutOfRange, it can never touch a neighbour;
///   - the quota: a thin-provisioning budget over distinct written
///     LBAs, tracked in a per-tenant allocation bitmap. Exhaustion is
///     a typed ResourceExhausted completion; trim refunds budget.
///     Reads of never-written blocks are zero-filled from the bitmap
///     (fully-unwritten reads never touch the media), so a recreated
///     tenant cannot see a predecessor's data even with trim disabled;
///   - QoS: with shared_depth > 0, requests park in per-tenant FIFOs
///     and a deficit-round-robin arbiter over qos_weights hands out
///     device slots (same DRR semantics as the mq block layer's
///     shared-depth gate, one level up). Tenant stream/priority
///     defaults classify the dispatched IO for the mq queue pairs;
///   - lifecycle: create/destroy/disconnect/reconnect under live
///     traffic. A drain cancels queued IO (typed Unavailable), lets
///     in-flight IO complete to the user, and only then completes the
///     destroy — after an optional whole-extent trim so the FTL
///     reclaims the capacity. All fully deterministic in sim time.
///
/// Neutrality: with shared_depth == 0 a single tenant spanning the
/// whole device adds no simulated cost and no reordering — the lower
/// device sees the exact request sequence it would see directly
/// (the vbd.neutral.schedule_identical gate's fingerprint). With no
/// tenants, the Backend is idle state.
class Backend {
 public:
  /// Latency of a read served entirely from the allocation map (every
  /// addressed block unwritten): thin reads never touch the media.
  static constexpr SimTime kThinReadLatencyNs = 1 * kMicrosecond;

  Backend(sim::Simulator* sim, blocklayer::BlockDevice* lower,
          BackendConfig config = {});
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Creates a tenant: allocates its extent, installs a fresh
  /// Frontend (owned by the backend, valid for the backend's life).
  /// Fails with ResourceExhausted when no contiguous extent of
  /// capacity_blocks is free, InvalidArgument on a bad shape.
  StatusOr<Frontend*> CreateTenant(TenantConfig config);

  /// Destroys a tenant under live traffic: queued IO completes with
  /// Unavailable immediately, in-flight IO completes normally, then
  /// the extent is trimmed (if configured) and returned to the free
  /// list. `on_destroyed` fires exactly once when the teardown is
  /// fully durable; the tenant's Frontend stays readable but stale.
  Status DestroyTenant(TenantId id,
                       blocklayer::IoCallback on_destroyed = {});

  /// Disconnects a tenant (guest detach): queued IO is cancelled,
  /// in-flight IO drains, data and namespace are retained.
  /// `on_drained` fires when the tenant reaches kDisconnected.
  Status Disconnect(TenantId id, blocklayer::IoCallback on_drained = {});

  /// Reconnects a kDisconnected tenant; its Frontend resumes working.
  Status Connect(TenantId id);

  // --- Introspection ------------------------------------------------

  /// Tenant slots currently not destroyed.
  std::size_t num_tenants() const;
  TenantState state(TenantId id) const;
  /// Lower-device LBA where the tenant's extent starts (tests).
  std::uint64_t extent_base(TenantId id) const;
  std::uint32_t tenant_inflight(TenantId id) const;
  std::size_t tenant_pending(TenantId id) const;
  std::uint64_t quota_used(TenantId id) const;
  /// Completions whose tenant epoch no longer matched (should stay 0:
  /// the drain protocol retires every in-flight IO before slot reuse).
  std::uint64_t stale_completions() const { return stale_completions_; }
  /// Pooled per-IO state accounting (equal at quiescence or state
  /// leaked), mirroring BlockLayer::io_states_*.
  std::size_t io_states_allocated() const { return ios_.allocated(); }
  std::size_t io_states_free() const { return ios_.free(); }
  const Counters& counters() const { return counters_; }
  blocklayer::BlockDevice* lower() const { return lower_; }
  const BackendConfig& config() const { return config_; }

 private:
  friend class Frontend;

  /// Per-IO state, pooled. The lower-device completion wrapper
  /// captures only {Backend*, VbdIo*} — inline in IoCallback's buffer,
  /// so the multiplexer adds no allocation to the forwarding hot path.
  struct VbdIo {
    TenantId tenant = kInvalidTenant;
    std::uint64_t epoch = 0;
    Frontend* fe = nullptr;
    blocklayer::IoOp op = blocklayer::IoOp::kRead;
    std::uint32_t nblocks = 1;
    std::uint64_t zero_mask = 0;  // read blocks to zero-fill (bit/block)
    SimTime start = 0;            // tenant submit time
    SimTime enqueued = 0;         // admission-queue entry (QoS only)
    SimTime dispatched = 0;       // handed to the lower device
    bool shared_slot = false;     // holds one shared_depth slot
    trace::SpanId span = 0;
    bool root = false;          // this layer minted the span
    std::uint32_t track = 0;    // tenant trace track at submit time
    blocklayer::IoCallback user_cb;
    blocklayer::IoRequest req;  // staged while admission-parked
  };

  struct Tenant {
    TenantConfig config;
    TenantState state = TenantState::kDestroyed;
    bool destroying = false;
    bool ever_written = false;
    std::uint64_t epoch = 0;
    std::uint64_t base = 0;   // extent start on the lower device
    std::uint64_t quota = 0;  // resolved (0-means-capacity applied)
    std::uint64_t used = 0;   // distinct written blocks
    std::vector<std::uint64_t> written;  // allocation bitmap
    std::uint32_t inflight = 0;
    std::deque<VbdIo*> pending;  // admission-parked (QoS only)
    Frontend* fe = nullptr;
    std::uint32_t track = 0;  // tenant trace track (tracer attached)
    metrics::Id m_read_lat = metrics::kInvalidId;
    metrics::Id m_write_lat = metrics::kInvalidId;
    blocklayer::IoCallback on_drained;
  };

  void Submit(Frontend* fe, blocklayer::IoRequest request);
  /// Completes a fully-unwritten read from the allocation map alone.
  void ServeThinRead(Frontend* fe, Tenant& t, blocklayer::IoRequest request);
  /// Epoch-aware views for a Frontend handle (stale handle -> frozen).
  TenantState StateFor(const Frontend& fe) const;
  std::uint64_t QuotaUsedFor(const Frontend& fe) const;

  /// Returns `io` to the pool, dropping its callback and request.
  void ReleaseIo(VbdIo* io);

  /// Completes `cb` with `status` after kRejectLatencyNs (typed
  /// failure, simulated host-side cost).
  void Reject(blocklayer::IoCallback cb, Status status);
  void OnLowerComplete(VbdIo* io, const blocklayer::IoResult& result);
  void DispatchIo(VbdIo* io);
  void DispatchShared();
  void CancelPending(Tenant& tenant);
  void FinishDrain(TenantId id);
  void FinishDestroy(TenantId id);

  // Extent free-list (sorted by base, adjacent ranges coalesced).
  StatusOr<std::uint64_t> AllocateExtent(std::uint64_t blocks);
  void ReleaseExtent(std::uint64_t base, std::uint64_t blocks);

  // Allocation-bitmap helpers over tenant-relative [lba, lba+n).
  static std::uint64_t CountUnwritten(const Tenant& t, Lba lba,
                                      std::uint32_t n);
  static void MarkWritten(Tenant& t, Lba lba, std::uint32_t n);
  static std::uint64_t ClearWritten(Tenant& t, Lba lba, std::uint32_t n);

  std::uint32_t WeightOf(const Tenant& t) const {
    return t.config.qos_weight == 0 ? 1 : t.config.qos_weight;
  }
  bool Traced() const {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }

  sim::Simulator* sim_;
  blocklayer::BlockDevice* lower_;
  BackendConfig config_;

  std::vector<Tenant> tenants_;
  std::vector<TenantId> free_slots_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> free_extents_;
  std::uint64_t epoch_counter_ = 0;
  /// Every Frontend ever created — handles stay valid after destroy.
  std::vector<std::unique_ptr<Frontend>> frontends_;

  sim::RecordPool<VbdIo> ios_;

  // Shared-depth DRR admission state.
  blocklayer::DrrArbiter drr_;
  std::uint32_t shared_outstanding_ = 0;

  std::uint64_t stale_completions_ = 0;
  Counters counters_;
};

}  // namespace postblock::vbd

#endif  // POSTBLOCK_VBD_BACKEND_H_
