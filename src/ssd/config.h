#ifndef POSTBLOCK_SSD_CONFIG_H_
#define POSTBLOCK_SSD_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "flash/error_model.h"
#include "flash/geometry.h"
#include "flash/timing.h"

namespace postblock::flash {
class FaultInjector;
}  // namespace postblock::flash

namespace postblock::trace {
class Tracer;
}  // namespace postblock::trace

namespace postblock::metrics {
class MetricRegistry;
}  // namespace postblock::metrics

namespace postblock::ssd {

/// Which Flash Translation Layer the controller runs (Figure 2's
/// "Scheduling & Mapping" box). The choice is the difference between the
/// pre-2009 SSDs (block/hybrid mapping, costly random writes) and the
/// modern ones (page mapping / DFTL) the paper contrasts in Myth 2.
enum class FtlKind {
  kPageMap = 0,  // full page-level mapping in controller RAM
  kBlockMap,     // block-level mapping (early SSDs)
  kHybrid,       // block-mapped data + page-mapped log blocks (BAST-like)
  kDftl,         // page mapping with demand-cached map (Gupta et al. [10])
  /// Host-managed physical append (the paper's Section 3 post-block
  /// device): no L2P, per-region append points, device-issued names,
  /// migration callbacks instead of hidden GC. Only the nameless
  /// command vocabulary works; LBA read/write/trim are Unimplemented.
  kVisionAppend,
};

const char* FtlKindName(FtlKind kind);

/// How the FTL scheduler places incoming host writes across LUNs.
enum class PlacementKind {
  /// Round-robin channel-first striping: consecutive writes land on
  /// different channels — maximizes parallelism for later reads.
  kChannelStripe = 0,
  /// LBA-static: a block-range of LBAs sticks to one LUN — models FTLs
  /// without placement freedom; later reads of a range serialize.
  kLbaStatic,
};

const char* PlacementKindName(PlacementKind kind);

/// Garbage-collection victim selection (Figure 2's GC box).
enum class GcPolicyKind {
  kGreedy = 0,   // fewest valid pages
  kCostBenefit,  // (1-u)/(1+u) * age (Rosenblum-style)
};

const char* GcPolicyKindName(GcPolicyKind kind);

struct GcConfig {
  GcPolicyKind policy = GcPolicyKind::kGreedy;
};

/// Dynamic WL (allocate the least-worn free block) is always on.
struct WearLevelConfig {
  /// Static WL: migrate cold data into worn blocks when the erase-count
  /// spread across *data* blocks exceeds the threshold.
  bool static_enabled = false;
  std::uint32_t spread_threshold = 64;
};

/// Battery-backed controller RAM write cache ("safe cache"): a write IO
/// completes as soon as it hits the buffer (the paper's Myth 2, reason
/// one).
struct WriteBufferConfig {
  std::uint32_t pages = 0;  // 0 disables the buffer
  /// Buffer survives power loss (battery/supercap). If false, a power
  /// cut drops un-drained writes.
  bool battery_backed = true;
};

/// Controller-level error recovery (the reliability layer over the
/// chip's stochastic ErrorModel — Myth 1's "error management must
/// happen at the SSD level"). Defaults are always-on but cost nothing
/// on clean runs: every knob only acts when ECC actually reports an
/// error. The read-retry ladder's depth and rung cost are constants of
/// the controller (controller.cc).
struct ReliabilityConfig {
  /// After this many *correctable* reads from one physical block the
  /// FTL refreshes it (relocates live data before errors become
  /// uncorrectable). 0 disables refresh.
  std::uint32_t refresh_correctable_threshold = 8;
  /// Bad-block spare budget per LUN. Erase-retirement consumes a spare
  /// credit instead of silently shrinking over-provisioning; when a
  /// LUN exhausts its credits the device goes read-only (writes fail
  /// with ResourceExhausted; reads still serve).
  std::uint32_t spare_blocks_per_lun = 4;
};

/// Everything needed to build a simulated SSD.
struct Config {
  flash::Geometry geometry;
  flash::Timing timing;
  flash::ErrorModelConfig errors = flash::ErrorModelConfig::None();
  ReliabilityConfig reliability;

  /// Scripted fault injector layered over `errors` (not owned; may be
  /// null). Deterministic: consumes no Rng draws, so attaching an
  /// empty one changes nothing.
  flash::FaultInjector* fault_injector = nullptr;

  FtlKind ftl = FtlKind::kPageMap;
  PlacementKind placement = PlacementKind::kChannelStripe;
  GcConfig gc;
  WearLevelConfig wear;
  WriteBufferConfig write_buffer;

  /// Fraction of raw capacity hidden from the host (over-provisioning).
  double over_provisioning = 0.125;

  /// Fixed controller firmware overhead added to every host-visible op.
  SimTime controller_overhead_ns = 2 * kMicrosecond;

  /// Cross-layer tracer shared by every layer of this device (not
  /// owned; may be null). Attaching a tracer wires span propagation and
  /// the GC-stall attribution counters through the whole stack; stage
  /// events are only recorded while tracer->enabled() — the single
  /// flag that turns full attribution on (ISSUE 2).
  trace::Tracer* tracer = nullptr;

  /// Time-series metric registry shared by every layer of this device
  /// (not owned; may be null). Attaching one makes controller, FTL and
  /// device register their counters/gauges/windowed histograms at
  /// construction so a `metrics::Sampler` can snapshot them on a sim
  /// clock (ISSUE 3). Like the tracer, attachment never perturbs the
  /// simulated schedule — the registry only observes.
  metrics::MetricRegistry* metrics = nullptr;

  /// Multi-plane operation: array operations on *different planes* of
  /// one LUN execute concurrently (the paper's §2.2: planes exist
  /// "typically to allow parallelism across planes"). Off = the whole
  /// LUN is one serial unit. Note: an FTL that wants plane-striped
  /// *placement* can equivalently be configured with
  /// luns_per_channel *= planes_per_lun.
  bool plane_parallelism = false;

  /// DFTL: cached mapping table capacity, in translation pages.
  std::uint32_t dftl_cmt_pages = 64;
  /// DFTL: LBAs covered by one translation page.
  std::uint32_t dftl_entries_per_tp = 512;

  std::uint64_t seed = 42;

  /// Host-visible logical blocks (pages) after over-provisioning.
  std::uint64_t UserPages() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(geometry.total_pages()) *
        (1.0 - over_provisioning));
  }

  /// A small default device suitable for tests (a few thousand pages).
  static Config Small();
  /// A 2012-era consumer SSD shape (default for benches).
  static Config Consumer2012();
  /// A single-channel single-LUN device (for raw-chip comparisons).
  static Config SingleChip();
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_CONFIG_H_
