#include "trace/latency_breakdown.h"

#include <cstdio>

namespace postblock::trace {

std::uint64_t LatencyBreakdown::TotalNs(Stage stage) const {
  std::uint64_t sum = 0;
  for (std::size_t o = 0; o < kOrigins; ++o) {
    sum += totals_[Index(stage, static_cast<Origin>(o))];
  }
  return sum;
}

std::uint64_t LatencyBreakdown::Count(Stage stage) const {
  std::uint64_t sum = 0;
  for (std::size_t o = 0; o < kOrigins; ++o) {
    sum += counts_[Index(stage, static_cast<Origin>(o))];
  }
  return sum;
}

std::uint64_t LatencyBreakdown::AttributedNs(Origin origin) const {
  std::uint64_t sum = 0;
  for (auto s = static_cast<std::size_t>(Stage::kQueueWait);
       s <= static_cast<std::size_t>(Stage::kCellOp); ++s) {
    sum += totals_[Index(static_cast<Stage>(s), origin)];
  }
  return sum;
}

std::string LatencyBreakdown::Summary() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %10s %12s %10s %10s\n", "stage",
                "count", "total_ms", "mean_us", "p99_us");
  out += line;
  for (std::size_t s = 0; s < kStages; ++s) {
    const auto stage = static_cast<Stage>(s);
    const std::uint64_t n = Count(stage);
    if (n == 0) continue;
    const Histogram& h = hist_[s];
    std::snprintf(line, sizeof(line), "%-12s %10llu %12.3f %10.2f %10.2f\n",
                  StageName(stage), static_cast<unsigned long long>(n),
                  static_cast<double>(TotalNs(stage)) / 1e6,
                  h.Mean() / 1e3, static_cast<double>(h.P99()) / 1e3);
    out += line;
  }
  return out;
}

}  // namespace postblock::trace
