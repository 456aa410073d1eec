#include "metrics/sampler.h"

#include <cstdio>

#include "common/check.h"
#include "common/json.h"

namespace postblock::metrics {

// --- TimeSeries --------------------------------------------------------

const Column* TimeSeries::Find(const std::string& name) const {
  for (const Column& c : cols_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::uint64_t TimeSeries::FinalU64(const std::string& name) const {
  const Column* c = Find(name);
  return (c == nullptr || c->u64.empty()) ? 0 : c->u64.back();
}

std::uint64_t TimeSeries::DeltaU64(const Column& c, std::size_t row) {
  if (row >= c.u64.size()) return 0;
  const std::uint64_t prev = row == 0 ? 0 : c.u64[row - 1];
  // Guard against non-monotone pollers instead of underflowing.
  return c.u64[row] >= prev ? c.u64[row] - prev : 0;
}

Status TimeSeries::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  std::fprintf(f, "time_ns");
  for (const Column& c : cols_) {
    // Metric names carry user-supplied tenant names; RFC-4180-quote
    // them so a comma or quote can't shift the header cells.
    std::fprintf(f, ",%s", CsvEscaped(c.name).c_str());
  }
  std::fprintf(f, "\n");
  for (std::size_t r = 0; r < t_.size(); ++r) {
    std::fprintf(f, "%llu", static_cast<unsigned long long>(t_[r]));
    for (const Column& c : cols_) {
      if (c.is_float) {
        std::fprintf(f, ",%.9g", c.f64[r]);
      } else {
        std::fprintf(f, ",%llu",
                     static_cast<unsigned long long>(c.u64[r]));
      }
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return Status::Ok();
}

Status TimeSeries::WriteJson(const std::string& path,
                             const std::string& meta_fields) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  std::fprintf(f, "{\n  \"meta\": {%s},\n  \"samples\": %zu,\n",
               meta_fields.c_str(), t_.size());
  std::fprintf(f, "  \"time_ns\": [");
  for (std::size_t r = 0; r < t_.size(); ++r) {
    std::fprintf(f, "%s%llu", r == 0 ? "" : ", ",
                 static_cast<unsigned long long>(t_[r]));
  }
  std::fprintf(f, "],\n  \"series\": {\n");
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    const Column& c = cols_[i];
    std::fprintf(f, "    \"%s\": {\"kind\": \"%s\", \"values\": [",
                 JsonEscaped(c.name).c_str(),
                 c.is_counter ? "counter" : (c.is_float ? "gauge" : "window"));
    for (std::size_t r = 0; r < t_.size(); ++r) {
      if (c.is_float) {
        std::fprintf(f, "%s%.9g", r == 0 ? "" : ", ", c.f64[r]);
      } else {
        std::fprintf(f, "%s%llu", r == 0 ? "" : ", ",
                     static_cast<unsigned long long>(c.u64[r]));
      }
    }
    std::fprintf(f, "]}%s\n", i + 1 < cols_.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return Status::Ok();
}

// --- Sampler -----------------------------------------------------------

Sampler::Sampler(sim::Simulator* sim, MetricRegistry* registry,
                 SimTime interval_ns)
    : sim_(sim), registry_(registry), interval_(interval_ns) {
  // A zero interval would re-arm its tick at the same instant forever.
  PB_CHECK(interval_ns > 0, "sampler interval must be positive");
}

void Sampler::Start() {
  PB_CHECK(!started_, "Sampler::Start called twice");
  started_ = true;
  // Freeze the column layout from the registry as it stands: metrics
  // registered after Start() are not sampled.
  n_polled_ = registry_->num_polled();
  n_gauges_ = registry_->num_gauges();
  n_hists_ = registry_->num_histograms();
  series_.cols_.clear();
  auto add_col = [this](std::string name, bool is_float, bool is_counter) {
    Column c;
    c.name = std::move(name);
    c.is_float = is_float;
    c.is_counter = is_counter;
    series_.cols_.push_back(std::move(c));
  };
  for (Id i = 0; i < n_polled_; ++i) {
    add_col(registry_->polled_name(i), false, true);
  }
  for (Id i = 0; i < n_gauges_; ++i) {
    add_col(registry_->gauge_name(i), true, false);
  }
  for (Id i = 0; i < n_hists_; ++i) {
    const std::string& n = registry_->hist_name(i);
    add_col(n + ".count", false, true);  // cumulative records
    add_col(n + ".window_count", false, false);
    add_col(n + ".p50", false, false);
    add_col(n + ".p99", false, false);
    add_col(n + ".p999", false, false);
    add_col(n + ".max", false, false);
  }
  TakeSample();  // baseline row at t0
  next_ = sim_->Now() + interval_;
  sim_->ScheduleAt(next_, [this] { Tick(); });
}

void Sampler::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Final row at the fully drained time (skipped if nothing advanced).
  TakeSample();
}

void Sampler::Resume() {
  if (!parked_ || stopped_) return;
  parked_ = false;
  // First boundary strictly after now, staying on the t0+k*interval
  // grid (next_ holds the parked tick's own boundary, <= now).
  const SimTime now = sim_->Now();
  next_ += interval_ * ((now - next_) / interval_ + 1);
  sim_->ScheduleAt(next_, [this] { Tick(); });
}

void Sampler::Tick() {
  if (stopped_) return;  // pending tick outlived a Stop(); do nothing
  TakeSample();
  // This tick was the only thing left in the queue: rescheduling would
  // keep the simulation alive forever doing no work. Stand down at the
  // time the run would otherwise have ended.
  if (sim_->pending_events() == 0) {
    parked_ = true;
    return;
  }
  next_ += interval_;
  sim_->ScheduleAt(next_, [this] { Tick(); });
}

void Sampler::TakeSample() {
  const SimTime now = sim_->Now();
  if (!series_.t_.empty() && series_.t_.back() == now) return;
  series_.t_.push_back(now);
  std::size_t k = 0;
  for (Id i = 0; i < n_polled_; ++i) {
    series_.cols_[k++].u64.push_back(registry_->PollCounter(i));
  }
  for (Id i = 0; i < n_gauges_; ++i) {
    series_.cols_[k++].f64.push_back(registry_->PollGauge(i));
  }
  for (Id i = 0; i < n_hists_; ++i) {
    Histogram* w = registry_->window(i);
    series_.cols_[k++].u64.push_back(registry_->hist_total(i));
    series_.cols_[k++].u64.push_back(w->count());
    series_.cols_[k++].u64.push_back(w->P50());
    series_.cols_[k++].u64.push_back(w->P99());
    series_.cols_[k++].u64.push_back(w->P999());
    series_.cols_[k++].u64.push_back(w->max());
    w->Reset();  // interval-reset: next window starts clean
  }
  if (observer_ != nullptr) {
    observer_->OnSample(series_, series_.t_.size() - 1);
  }
}

}  // namespace postblock::metrics
