#ifndef POSTBLOCK_METRICS_SAMPLER_H_
#define POSTBLOCK_METRICS_SAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "sim/simulator.h"

namespace postblock::metrics {

/// One column of the sampled time series. Counter and histogram
/// sub-columns are exact uint64; gauges are doubles. Exactly one of
/// `u64`/`f64` is populated, per `is_float`.
struct Column {
  std::string name;
  bool is_float = false;
  bool is_counter = false;  // cumulative (report deltas/rates over it)
  std::vector<std::uint64_t> u64;
  std::vector<double> f64;
};

/// In-memory column store of sampled metrics: one row per snapshot,
/// one column per metric (histograms expand into count/.window_count/
/// .p50/.p99/.p999/.max sub-columns). Counters are stored cumulative;
/// consumers compute per-window deltas (`DeltaU64`).
class TimeSeries {
 public:
  std::size_t rows() const { return t_.size(); }
  const std::vector<SimTime>& timestamps() const { return t_; }
  const std::vector<Column>& columns() const { return cols_; }

  /// Column lookup by name; nullptr when absent.
  const Column* Find(const std::string& name) const;

  /// Last sampled value of a uint64 column (0 when absent/empty) —
  /// the "final cumulative row" the Counters cross-check reads.
  std::uint64_t FinalU64(const std::string& name) const;

  /// Cumulative-column delta across [row-1, row] (row 0 deltas from 0).
  static std::uint64_t DeltaU64(const Column& c, std::size_t row);

  /// Plain CSV: header `time_ns,<col>,...`, one row per snapshot.
  Status WriteCsv(const std::string& path) const;
  /// JSON time series. `meta_fields` is spliced verbatim into the
  /// "meta" object (e.g. "\"git_sha\": \"abc123\"") — empty for none.
  Status WriteJson(const std::string& path,
                   const std::string& meta_fields = "") const;

 private:
  friend class Sampler;
  std::vector<SimTime> t_;
  std::vector<Column> cols_;
};

/// Read-only hook invoked after every sample row lands in the column
/// store. The observer sees the full series (layout frozen at Start())
/// plus the index of the row just taken. Implementations must not
/// schedule events or mutate metrics — the sampler's schedule-
/// neutrality argument (below) extends to observers only as long as
/// they stay read-only. obs::SloWatchdog is the canonical impl.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void OnSample(const TimeSeries& series, std::size_t row) = 0;
};

/// Snapshots every registered metric on a fixed sim-clock interval.
///
/// Ticks are ordinary simulator events (they ride the timing wheel),
/// but they only *read* state — counters, polls, window histograms —
/// so an enabled sampler never perturbs the simulated device schedule.
/// Two consequences of living in the event queue:
///
///   - Samples land at exact interval boundaries t0 + k*interval
///     (verified by tests): the wheel executes the tick precisely at
///     its timestamp, between whatever device events share it.
///   - A self-rescheduling tick would keep `Simulator::Run()` alive
///     forever, so a tick that finds the queue otherwise empty parks
///     instead of rescheduling: sampling stops exactly where the
///     simulation would have ended anyway. The final simulated time of
///     a sampled run may therefore exceed an unsampled run's by up to
///     one interval (the last tick); the *device* schedule — every IO
///     and GC event timestamp — is byte-identical.
///
/// Windowed histograms are reset after every snapshot, so the p50/p99/
/// p999 sub-columns describe each interval in isolation (Figure 2's
/// cliff is visible in the window where GC starts, not diluted into a
/// whole-run percentile).
class Sampler {
 public:
  /// Registration must be complete before Start(): the column layout
  /// is frozen from the registry's contents at that point.
  /// `interval_ns` must be positive (checked in every build).
  Sampler(sim::Simulator* sim, MetricRegistry* registry,
          SimTime interval_ns);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Takes the baseline sample at the current sim time and schedules
  /// the first tick one interval out. Call once: a second call aborts.
  void Start();

  /// Stops ticking and, if sim time advanced past the last snapshot,
  /// takes one final sample — so the last row always reflects the
  /// fully drained run (the row the Counters cross-check reads).
  void Stop();

  /// Re-arms a parked sampler on the next t0 + k*interval boundary.
  /// A sampler parks whenever the event queue fully drains, so a
  /// workload with several Run() phases calls Resume() between them.
  /// No-op unless parked.
  void Resume();

  /// Attaches a read-only per-row observer (nullptr detaches). Set
  /// before Start() to observe the baseline row as well.
  void set_observer(SampleObserver* obs) { observer_ = obs; }
  SampleObserver* observer() const { return observer_; }

  bool started() const { return started_; }
  bool stopped() const { return stopped_; }
  /// True when a tick found nothing else pending and stood down.
  bool parked() const { return parked_; }
  SimTime interval() const { return interval_; }
  std::uint64_t samples_taken() const { return series_.rows(); }

  const TimeSeries& series() const { return series_; }

 private:
  void Tick();
  void TakeSample();

  sim::Simulator* sim_;
  MetricRegistry* registry_;
  SampleObserver* observer_ = nullptr;
  SimTime interval_;
  SimTime next_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool parked_ = false;
  // Column layout frozen at Start().
  std::size_t n_polled_ = 0;
  std::size_t n_gauges_ = 0;
  std::size_t n_hists_ = 0;
  TimeSeries series_;
};

}  // namespace postblock::metrics

#endif  // POSTBLOCK_METRICS_SAMPLER_H_
