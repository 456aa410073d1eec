#ifndef POSTBLOCK_TRACE_TRACE_H_
#define POSTBLOCK_TRACE_TRACE_H_

#include <cstdint>
#include <string>

#include "common/types.h"

namespace postblock::trace {

class Tracer;

/// Identity of one logical IO as it crosses layers: a span groups every
/// stage event recorded for that IO, from the WAL/block-layer submit
/// down to the flash cell op. 0 = "no span" (tracing off, or work not
/// tied to a host IO).
using SpanId = std::uint64_t;

/// Where an IO's nanoseconds went. These are the per-stage buckets of
/// the latency breakdown; for a single-page host IO the stage spans
/// tile the IO's lifetime exactly, so their durations sum to the
/// end-to-end latency (the kIo root span).
enum class Stage : std::uint8_t {
  kIo = 0,     // root span: one per host IO, submit -> completion
  kQueueWait,  // waiting in a software queue / for a busy resource
  kSchedule,   // host CPU + firmware admission/completion costs
  kMap,        // FTL mapping, placement and allocation (incl. stalls)
  kGcStall,    // resource wait attributable to GC/WL occupancy
  kTransfer,   // channel bus busy (data transfer or command cycles)
  kCellOp,     // array busy: page read/program, block erase, copyback
  kGc,         // a background collection (GC or WL) as its own span
  kApp,        // application-level op (WAL commit / sync persist)
  kSlo,        // service-objective breach marker (obs::SloWatchdog)
  kCount
};

inline const char* StageName(Stage s) {
  switch (s) {
    case Stage::kIo:
      return "io";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kSchedule:
      return "schedule";
    case Stage::kMap:
      return "map";
    case Stage::kGcStall:
      return "gc_stall";
    case Stage::kTransfer:
      return "transfer";
    case Stage::kCellOp:
      return "cell_op";
    case Stage::kGc:
      return "gc";
    case Stage::kApp:
      return "app";
    case Stage::kSlo:
      return "slo_breach";
    case Stage::kCount:
      break;
  }
  return "?";
}

/// Who caused the work. Carried alongside the span so host traffic and
/// the background traffic it competes with stay distinguishable on the
/// same flash tracks — the distinction the block interface hides.
enum class Origin : std::uint8_t {
  kHostRead = 0,
  kHostWrite,
  kHostTrim,
  kHostFlush,
  kGc,
  kWearLevel,
  kMeta,  // internal traffic (DFTL map IO, markers, unattributed)
  kCount
};

inline const char* OriginName(Origin o) {
  switch (o) {
    case Origin::kHostRead:
      return "host_read";
    case Origin::kHostWrite:
      return "host_write";
    case Origin::kHostTrim:
      return "host_trim";
    case Origin::kHostFlush:
      return "host_flush";
    case Origin::kGc:
      return "gc";
    case Origin::kWearLevel:
      return "wear_level";
    case Origin::kMeta:
      return "meta";
    case Origin::kCount:
      break;
  }
  return "?";
}

inline bool IsGcOrigin(Origin o) {
  return o == Origin::kGc || o == Origin::kWearLevel;
}

/// Trace context threaded through the stack alongside each operation
/// (an op's "who am I": span + cause). Plain value, 24 bytes; default
/// constructed = untraced. Passing it costs nothing measurable, so the
/// plumbing stays in place even when tracing is off.
struct Ctx {
  SpanId span = 0;
  SpanId parent = 0;
  Origin origin = Origin::kMeta;
};

/// Chrome-trace "process" ids used to group tracks by layer.
inline constexpr std::uint32_t kPidHost = 1;         // block layer, app
inline constexpr std::uint32_t kPidTranslation = 2;  // device/FTL
inline constexpr std::uint32_t kPidFlash = 3;        // channels + LUNs
/// Tenant trace tracks: tenant slot N registers under pid
/// kPidTenantBase + N, so Perfetto groups each tenant's spans as its
/// own process ("tenant-N") — the multi-tenant view the vbd backend
/// exports.
inline constexpr std::uint32_t kPidTenantBase = 16;

inline const char* PidName(std::uint32_t pid) {
  switch (pid) {
    case kPidHost:
      return "host";
    case kPidTranslation:
      return "controller";
    case kPidFlash:
      return "flash";
  }
  return pid >= kPidTenantBase ? "tenant" : "?";
}

/// Exporter-facing pid label: layer name for the fixed pids,
/// "tenant-<slot>" for tenant pids.
inline std::string PidLabel(std::uint32_t pid) {
  if (pid >= kPidTenantBase) {
    return "tenant-" + std::to_string(pid - kPidTenantBase);
  }
  return PidName(pid);
}

/// Integrates how long a resource has been held by GC/WL work — the
/// mechanism behind GC-stall attribution. A host op snapshots
/// `Total(now)` when it starts waiting; the delta at grant time is
/// exactly how long GC occupied the (capacity-1) resource while the op
/// waited, i.e. the GC-induced share of its queueing delay. O(1) per
/// op, always on (it also feeds the controller's gc-stall counters).
struct BusyClock {
  std::uint64_t total = 0;
  SimTime since = 0;
  std::int32_t depth = 0;

  void Enter(SimTime now) {
    if (depth++ == 0) since = now;
  }
  void Exit(SimTime now) {
    if (--depth == 0) total += now - since;
  }
  std::uint64_t Total(SimTime now) const {
    return depth > 0 ? total + (now - since) : total;
  }
};

}  // namespace postblock::trace

#endif  // POSTBLOCK_TRACE_TRACE_H_
