#ifndef POSTBLOCK_OBS_SLO_WATCHDOG_H_
#define POSTBLOCK_OBS_SLO_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "metrics/sampler.h"
#include "trace/tracer.h"

namespace postblock::obs {

/// What an SLO bounds. The histogram kinds read the Sampler's
/// per-window percentile sub-columns (each sampling interval in
/// isolation — a one-window p999 excursion breaches even if the
/// whole-run percentile stays healthy); throughput reads counter
/// deltas normalized over the actual row spacing; gauge kinds read the
/// sampled value directly (e.g. a queue-depth ceiling).
enum class SloKind : std::uint8_t {
  kMaxP50,        // metric is a histogram; bound on the window p50
  kMaxP99,        //   "            "        bound on the window p99
  kMaxP999,       //   "            "        bound on the window p999
  kMaxWindowMax,  //   "            "        bound on the window max
  kMinThroughput, // metric is a counter; bound is a floor in 1/sec
  kMaxGauge,      // metric is a gauge; ceiling on the sampled value
  kMinGauge,      //   "         "      floor on the sampled value
};

const char* SloKindName(SloKind kind);

/// One declarative service objective, evaluated every sample row.
struct SloSpec {
  std::string name;    // report label, e.g. "tenant-a read p99"
  std::string metric;  // registry metric name, e.g. "vbd.a.read_lat_ns"
  SloKind kind = SloKind::kMaxP99;
  double bound = 0;
  /// Histogram kinds only: skip windows with fewer samples than this
  /// (a single straggler in an otherwise-empty window is noise, not a
  /// breach). Throughput/gauge kinds ignore it.
  std::uint64_t min_window_count = 1;
};

/// One recorded violation: SLO `slo` observed `observed` against
/// `bound` at sim time `at` (the sample-row timestamp).
struct SloBreach {
  std::uint32_t slo = 0;
  SimTime at = 0;
  double observed = 0;
  double bound = 0;
};

/// Declarative sim-time SLO evaluation on the metrics Sampler grid:
/// attach via `sampler.set_observer(&watchdog)`. Every sample row is
/// checked against every spec; violations become typed SloBreach
/// records, per-SLO counters, optional markers on a trace track (the
/// PR 4 `health` track by convention), and a run-report JSON section.
///
/// Determinism and neutrality: the watchdog is a pure function of the
/// sampled sim-time series — it reads rows the Sampler already took,
/// schedules nothing, and mutates no metric, so attaching it cannot
/// perturb the device schedule, and two runs of the same workload
/// produce byte-identical breach sequences (tests hold Digest() equal
/// across runs; the obs.watchdog.deterministic gate holds breach
/// detection deterministic).
class SloWatchdog final : public metrics::SampleObserver {
 public:
  explicit SloWatchdog(std::vector<SloSpec> specs);

  /// Also mark each breach on `track` of `tracer` (zero-duration
  /// Stage::kSlo event at the breach time, arg = SLO index). The
  /// caller registers the track — conventionally
  /// `tracer->RegisterTrack(trace::kPidFlash, "health")`, which dedups
  /// onto the PR 4 health track when the controller already made it.
  void AttachTrace(trace::Tracer* tracer, std::uint32_t track);

  /// metrics::SampleObserver: evaluate every spec against row `row`.
  void OnSample(const metrics::TimeSeries& series, std::size_t row) override;

  const std::vector<SloSpec>& specs() const { return specs_; }
  const std::vector<SloBreach>& breaches() const { return breaches_; }
  std::uint64_t breach_count(std::uint32_t slo) const {
    return slo < counts_.size() ? counts_[slo] : 0;
  }
  std::uint64_t total_breaches() const { return breaches_.size(); }
  /// Specs whose metric column never resolved (metric not registered
  /// before Sampler::Start froze the layout). Reported, not fatal.
  std::uint64_t unresolved_specs() const;

  /// Order-sensitive digest of the full breach sequence — the
  /// determinism witness (equal across reruns of the same workload).
  std::uint64_t Digest() const;

  /// Run-report JSON object: per-SLO status + the first breaches.
  std::string ReportJson(std::size_t max_breaches_listed = 16) const;

 private:
  /// Column indices resolved lazily at the first OnSample (the
  /// Sampler's layout is frozen at Start, which may be after this
  /// watchdog is constructed).
  struct Resolved {
    int value_col = -1;         // the column the bound applies to
    int window_count_col = -1;  // histogram kinds: the gating count
    bool attempted = false;
  };

  void Resolve(const metrics::TimeSeries& series, std::size_t i);

  std::vector<SloSpec> specs_;
  std::vector<Resolved> resolved_;
  std::vector<std::uint64_t> counts_;
  std::vector<SloBreach> breaches_;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace postblock::obs

#endif  // POSTBLOCK_OBS_SLO_WATCHDOG_H_
