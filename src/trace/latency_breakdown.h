#ifndef POSTBLOCK_TRACE_LATENCY_BREAKDOWN_H_
#define POSTBLOCK_TRACE_LATENCY_BREAKDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "trace/trace.h"

namespace postblock::trace {

/// Folds stage events into per-stage latency histograms and per
/// (stage, origin) nanosecond totals as they are recorded, so the
/// answer to "where did the microseconds go" survives even after the
/// event ring has wrapped. Fixed-size arrays, no allocation per event.
/// The per-stage histograms are allocated by Allocate(), which the
/// Tracer calls when it is first enabled, so a breakdown that never
/// records costs no histogram memory.
class LatencyBreakdown {
 public:
  /// Allocates the per-stage histograms; later calls do nothing. Add()
  /// needs them.
  void Allocate() {
    if (hist_.empty()) hist_.resize(kStages);
  }

  void Add(Stage stage, Origin origin, std::uint64_t dur_ns) {
    const std::size_t i = Index(stage, origin);
    totals_[i] += dur_ns;
    counts_[i] += 1;
    hist_[static_cast<std::size_t>(stage)].Record(dur_ns);
  }

  /// Total nanoseconds recorded for a stage, one origin or all.
  std::uint64_t TotalNs(Stage stage, Origin origin) const {
    return totals_[Index(stage, origin)];
  }
  std::uint64_t TotalNs(Stage stage) const;

  std::uint64_t Count(Stage stage, Origin origin) const {
    return counts_[Index(stage, origin)];
  }
  std::uint64_t Count(Stage stage) const;

  /// Sum of the per-IO attribution stages (kQueueWait..kCellOp) for one
  /// origin — for a single-page host IO this equals the kIo end-to-end
  /// total, the tiling invariant the trace tests assert.
  std::uint64_t AttributedNs(Origin origin) const;

  /// Multi-line human-readable table of the non-empty stages.
  std::string Summary() const;

 private:
  static constexpr std::size_t kStages =
      static_cast<std::size_t>(Stage::kCount);
  static constexpr std::size_t kOrigins =
      static_cast<std::size_t>(Origin::kCount);

  static std::size_t Index(Stage stage, Origin origin) {
    return static_cast<std::size_t>(stage) * kOrigins +
           static_cast<std::size_t>(origin);
  }

  std::uint64_t totals_[kStages * kOrigins] = {};
  std::uint64_t counts_[kStages * kOrigins] = {};
  std::vector<Histogram> hist_;  // one per stage, once allocated
};

}  // namespace postblock::trace

#endif  // POSTBLOCK_TRACE_LATENCY_BREAKDOWN_H_
