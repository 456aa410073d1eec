#ifndef POSTBLOCK_VBD_VBD_H_
#define POSTBLOCK_VBD_VBD_H_

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/types.h"

namespace postblock::metrics {
class MetricRegistry;
}  // namespace postblock::metrics

namespace postblock::trace {
class Tracer;
}  // namespace postblock::trace

namespace postblock::vbd {

/// Slot index of a tenant inside one Backend. Slots are reused after
/// destroy (the recreated tenant gets a fresh epoch), so a TenantId is
/// only meaningful together with the epoch its Frontend carries.
using TenantId = std::uint32_t;
inline constexpr TenantId kInvalidTenant = ~0u;

/// Lifecycle of a virtual block device, modeled on the Xen blkif
/// connection states (SNIPPETS.md 1-2): a front-end connects to the
/// back-end, may disconnect and reconnect keeping its data (guest
/// reboot), and is eventually destroyed, returning its namespace.
///
///   kConnected     accepting IO
///   kDraining      no new IO; in-flight IO completing (disconnect or
///                  destroy in progress)
///   kDisconnected  drained, data retained, reconnectable
///   kDestroyed     namespace freed; the slot may be reused
enum class TenantState : std::uint8_t {
  kConnected = 0,
  kDraining,
  kDisconnected,
  kDestroyed,
};

/// Per-tenant shape: how much of the device the tenant sees, how much
/// it may actually fill, and how its traffic is classified downstream.
struct TenantConfig {
  /// Trace-track / metric name; "" derives "t<slot>".
  std::string name;
  /// Namespace size: the tenant addresses LBAs [0, capacity_blocks).
  /// Physically reserved as one contiguous extent of the lower device.
  std::uint64_t capacity_blocks = 0;
  /// Thin-provisioning budget: distinct LBAs the tenant may have
  /// written at any one time. Writing a never-written LBA past the
  /// quota fails with ResourceExhausted (a typed status, not UB);
  /// trim returns budget. 0 = capacity_blocks (fully provisioned).
  std::uint64_t quota_blocks = 0;
  /// Deficit-round-robin weight at the backend's shared admission
  /// budget (BackendConfig::shared_depth). A weight-w tenant gets w
  /// device slots per DRR round; 0 clamps to 1 (starvation-free).
  std::uint32_t qos_weight = 1;
  /// Default IoRequest::stream for this tenant's IOs (applied when the
  /// submitted request leaves it 0). Nonzero streams pin to an mq
  /// queue pair under BlockLayerConfig::stream_queues — this is how
  /// tenants map onto PR 5's queue pairs and their DRR weights.
  std::uint8_t stream = 0;
  /// Default IoRequest::priority (applied when the request leaves it
  /// 0): latency-sensitive tenants dispatch first under the priority
  /// scheduler.
  std::uint8_t priority = 0;
  /// Register per-tenant registry metrics (vbd.<name>.*) when the
  /// backend has a MetricRegistry attached. Off by default: at
  /// thousands of tenants, per-tenant time series are opt-in.
  bool register_metrics = false;
};

/// Backend-wide knobs. Every default is neutral: a single pass-through
/// tenant spanning the whole lower device produces a schedule
/// byte-identical to submitting at the lower device directly
/// (bench_vbd's neutrality fingerprint, the
/// vbd.neutral.schedule_identical gate).
struct BackendConfig {
  /// Shared in-flight device-slot budget across all tenants,
  /// arbitrated by deficit-round-robin over TenantConfig::qos_weight.
  /// 0 = pass-through admission: every request dispatches immediately
  /// (the neutral default).
  std::uint32_t shared_depth = 0;
  /// Trim the tenant's extent on the lower device once a destroy has
  /// drained, before the namespace returns to the free list — the FTL
  /// reclaims the capacity instead of garbage-collecting dead data.
  bool trim_on_destroy = true;
  /// Optional cross-layer tracer: each tenant gets its own trace track
  /// (its own Perfetto process group, trace::kPidTenantBase + slot) so
  /// spans group by tenant. Null costs a pointer test.
  trace::Tracer* tracer = nullptr;
  /// Optional registry for backend aggregates (vbd.submitted /
  /// vbd.completed / vbd.rejected) and opt-in per-tenant series.
  metrics::MetricRegistry* metrics = nullptr;
};

/// Per-tenant observables. Lives in the tenant's Frontend, so the
/// numbers survive destroy (a frozen record of the tenant's life).
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;           // completions with !ok status
  std::uint64_t rejected_bounds = 0;  // out-of-namespace LBA
  std::uint64_t rejected_quota = 0;   // thin-provisioning budget hit
  std::uint64_t rejected_state = 0;   // not connected
  std::uint64_t cancelled = 0;        // queued IO dropped by drain
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t thin_reads = 0;       // served from the allocation map
  std::uint64_t zero_filled_blocks = 0;
  Histogram read_latency;   // submit -> completion, ns (incl. p999)
  Histogram write_latency;
};

}  // namespace postblock::vbd

#endif  // POSTBLOCK_VBD_VBD_H_
