#ifndef POSTBLOCK_METRICS_METRICS_H_
#define POSTBLOCK_METRICS_METRICS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace postblock::metrics {

/// Array-slot handle of one registered metric. Instruments resolve
/// their names to Ids once at construction; every record-path call is
/// a plain indexed array access — no string lookup, no allocation.
using Id = std::uint32_t;
inline constexpr Id kInvalidId = ~0u;

/// The sim-time metrics registry: named counters, gauges and
/// windowed histograms for everything the paper reasons about over
/// *time* — write amplification, free blocks, queue depth, GC busy
/// fraction, windowed p99 — which the end-of-run `Counters` scalars
/// cannot answer.
///
/// Three metric families:
///
///   polled counter  a cumulative uint64 read from its owner only at
///                   sample time: the `Counters` entry the hot path
///                   already bumps, or a busy-ns integral. A counted
///                   event lives in one place, its owner's `Counters`;
///                   the registry only reads it;
///   gauge           an instantaneous double read at sample time (free
///                   blocks, buffer occupancy, WA, wear spread);
///   histogram       a windowed latency distribution: `Record` on the
///                   hot path, percentiles computed per sampling
///                   interval and then reset, so p99 is *of the
///                   window*, not of the whole run. Windows stay
///                   pushed: a window's exact max cannot be derived
///                   from a cumulative histogram.
///
/// Registration is cold-path (constructors); the record path costs one
/// array add. Attaching a registry to a stack never perturbs the
/// simulated schedule — metrics observe it (same contract as the
/// tracer).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // --- Registration (cold path, instrument constructors) -----------
  // Names must be unique across the registry (one instrumented stack
  // per registry); a second registration of a name aborts.

  /// Registers a counter whose cumulative value is polled at sample
  /// time. `poll` must be monotone non-decreasing in sim time.
  Id AddPolledCounter(std::string name, std::function<std::uint64_t()> poll);

  /// Registers an instantaneous gauge polled at sample time.
  Id AddGauge(std::string name, std::function<double()> poll);

  /// Registers a windowed histogram (interval-reset by the Sampler).
  Id AddHistogram(std::string name);

  // --- Record path (hot; zero-alloc, no lookups) --------------------

  void Record(Id id, std::uint64_t value) {
    windows_[id].Record(value);
    ++hist_totals_[id];
  }

  // --- Introspection (cold path: sampler, tests, reports) -----------

  std::size_t num_polled() const { return polled_.size(); }
  std::size_t num_gauges() const { return gauges_.size(); }
  std::size_t num_histograms() const { return windows_.size(); }

  std::uint64_t PollCounter(Id id) const { return polled_[id].poll(); }
  double PollGauge(Id id) const { return gauges_[id].poll(); }
  /// The current (unfinished) window of a histogram metric.
  Histogram* window(Id id) { return &windows_[id]; }
  const Histogram& window(Id id) const { return windows_[id]; }
  /// Cumulative records ever pushed into a histogram metric (survives
  /// window resets; cross-checkable against completion counters).
  std::uint64_t hist_total(Id id) const { return hist_totals_[id]; }

  const std::string& polled_name(Id id) const { return polled_[id].name; }
  const std::string& gauge_name(Id id) const { return gauges_[id].name; }
  const std::string& hist_name(Id id) const { return hist_names_[id]; }

  /// Current value of a polled counter by name; for tests and reports.
  /// Returns `fallback` when unknown.
  std::uint64_t CounterByName(const std::string& name,
                              std::uint64_t fallback = 0) const;
  /// True iff any metric of any family is registered under `name`.
  bool Has(const std::string& name) const;

 private:
  struct Polled {
    std::string name;
    std::function<std::uint64_t()> poll;
  };
  struct Gauge {
    std::string name;
    std::function<double()> poll;
  };

  void CheckUnique(const std::string& name);

  std::vector<Polled> polled_;
  std::vector<Gauge> gauges_;
  std::vector<Histogram> windows_;
  std::vector<std::uint64_t> hist_totals_;
  std::vector<std::string> hist_names_;
};

}  // namespace postblock::metrics

#endif  // POSTBLOCK_METRICS_METRICS_H_
