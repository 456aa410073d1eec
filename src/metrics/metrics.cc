#include "metrics/metrics.h"

#include "common/check.h"

namespace postblock::metrics {

void MetricRegistry::CheckUnique(const std::string& name) {
  // Duplicate names mean two instruments registered the same stream —
  // a wiring bug (e.g. two devices sharing one registry without a
  // prefix), and the second stream's column would shadow the first.
  // Cold path, so a linear scan is fine.
  PB_CHECK(!Has(name), "metric name registered twice");
}

Id MetricRegistry::AddPolledCounter(std::string name,
                                    std::function<std::uint64_t()> poll) {
  CheckUnique(name);
  polled_.push_back(Polled{std::move(name), std::move(poll)});
  return static_cast<Id>(polled_.size() - 1);
}

Id MetricRegistry::AddGauge(std::string name,
                            std::function<double()> poll) {
  CheckUnique(name);
  gauges_.push_back(Gauge{std::move(name), std::move(poll)});
  return static_cast<Id>(gauges_.size() - 1);
}

Id MetricRegistry::AddHistogram(std::string name) {
  CheckUnique(name);
  windows_.emplace_back();
  hist_totals_.push_back(0);
  hist_names_.push_back(std::move(name));
  return static_cast<Id>(windows_.size() - 1);
}

std::uint64_t MetricRegistry::CounterByName(const std::string& name,
                                            std::uint64_t fallback) const {
  for (const Polled& p : polled_) {
    if (p.name == name) return p.poll();
  }
  return fallback;
}

bool MetricRegistry::Has(const std::string& name) const {
  for (const Polled& p : polled_) {
    if (p.name == name) return true;
  }
  for (const Gauge& g : gauges_) {
    if (g.name == name) return true;
  }
  for (const std::string& n : hist_names_) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace postblock::metrics
