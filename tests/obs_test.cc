// src/obs: the SLO watchdog. The load-bearing properties: its breach
// stream is deterministic across reruns, breaches land on the trace as
// markers, and its JSON report and the trace export round-trip —
// including names that need JSON escaping.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/json.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "trace/tracer.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

// --- SloWatchdog ------------------------------------------------------------

struct WatchRun {
  std::uint64_t breaches = 0;
  std::uint64_t digest = 0;
  std::uint64_t marks = 0;
  std::uint64_t unresolved = 0;
  std::vector<obs::SloBreach> events;
};

WatchRun RunWatchdogOnce() {
  sim::Simulator sim;
  metrics::MetricRegistry registry;
  trace::Tracer tracer(1 << 12);
  tracer.set_enabled(true);
  ssd::Config config = ssd::Config::Small();
  config.metrics = &registry;
  ssd::Device device(&sim, config);
  const std::uint64_t n = device.num_blocks();
  bench::FillSequential(&sim, &device, n);

  obs::SloWatchdog watchdog(std::vector<obs::SloSpec>{
      {"read p99 (intentional breach)", "dev.read_lat_ns",
       obs::SloKind::kMaxP99, 1.0, /*min_window_count=*/1},
      {"throughput floor (intentional breach)", "dev.completions",
       obs::SloKind::kMinThroughput, 1e12},
      {"missing metric", "no.such.metric", obs::SloKind::kMaxGauge, 1.0},
  });
  watchdog.AttachTrace(&tracer,
                       tracer.RegisterTrack(trace::kPidFlash, "health"));

  metrics::Sampler sampler(&sim, &registry, 1'000'000);
  sampler.set_observer(&watchdog);
  sampler.Start();
  workload::RandomPattern reads(0, n, /*is_write=*/false, 1, 8);
  (void)workload::RunClosedLoop(&sim, &device, &reads, 2000, 4);
  sim.Run();
  sampler.Stop();

  WatchRun out;
  out.breaches = watchdog.total_breaches();
  out.digest = watchdog.Digest();
  out.unresolved = watchdog.unresolved_specs();
  out.events = watchdog.breaches();
  tracer.ForEach([&](const trace::TraceEvent& e) {
    if (e.stage == trace::Stage::kSlo) ++out.marks;
  });
  return out;
}

TEST(SloWatchdogTest, BreachStreamIsDeterministicAcrossReruns) {
  const WatchRun a = RunWatchdogOnce();
  const WatchRun b = RunWatchdogOnce();
  EXPECT_GT(a.breaches, 0u) << "the 1ns p99 bound must breach";
  EXPECT_EQ(a.breaches, b.breaches);
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].slo, b.events[i].slo) << i;
    EXPECT_EQ(a.events[i].at, b.events[i].at) << i;
    EXPECT_EQ(a.events[i].observed, b.events[i].observed) << i;
  }
}

TEST(SloWatchdogTest, BreachesLandOnTheHealthTrackAsSloMarkers) {
  const WatchRun a = RunWatchdogOnce();
  EXPECT_EQ(a.marks, a.breaches);
}

TEST(SloWatchdogTest, UnresolvedSpecIsReportedNotFatal) {
  const WatchRun a = RunWatchdogOnce();
  EXPECT_EQ(a.unresolved, 1u);
}

TEST(SloWatchdogTest, GaugeAndQuietSpecsDoNotBreach) {
  // A spec whose bound comfortably holds must record zero breaches.
  sim::Simulator sim;
  metrics::MetricRegistry registry;
  ssd::Config config = ssd::Config::Small();
  config.metrics = &registry;
  ssd::Device device(&sim, config);
  const std::uint64_t n = device.num_blocks();

  obs::SloWatchdog watchdog(std::vector<obs::SloSpec>{
      {"loose p99", "dev.read_lat_ns", obs::SloKind::kMaxP99, 1e15},
      {"loose floor", "dev.completions", obs::SloKind::kMinThroughput, 1.0},
  });
  metrics::Sampler sampler(&sim, &registry, 1'000'000);
  sampler.set_observer(&watchdog);
  sampler.Start();
  workload::RandomPattern reads(0, n, /*is_write=*/false, 1, 3);
  (void)workload::RunClosedLoop(&sim, &device, &reads, 500, 2);
  sim.Run();
  sampler.Stop();
  EXPECT_EQ(watchdog.total_breaches(), 0u);
  EXPECT_EQ(watchdog.unresolved_specs(), 0u);
}

TEST(SloWatchdogTest, ReportJsonEscapesSpecNames) {
  obs::SloWatchdog watchdog(std::vector<obs::SloSpec>{
      {"quoted \"name\"", "no.such.metric", obs::SloKind::kMaxGauge, 1.0},
  });
  const std::string report = watchdog.ReportJson();
  EXPECT_NE(report.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_EQ(report.find("quoted \"name\""), std::string::npos);
}

// --- Satellite: JSON/CSV escaping of user-supplied names --------------------

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscaped("plain"), "plain");
  EXPECT_EQ(JsonEscaped("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscaped("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscaped("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscaped(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscaped("plain"), "plain");
  EXPECT_EQ(CsvEscaped("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscaped("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvEscaped("a\nb"), "\"a\nb\"");
}

TEST(JsonEscapeTest, TracerTrackNamesSurviveExport) {
  trace::Tracer tracer(16);
  tracer.set_enabled(true);
  tracer.RegisterTrack(trace::kPidFlash, "tenant \"a\"\\weird");
  const std::string json = trace::ToChromeJson(tracer);
  // The raw quote must never appear unescaped inside the emitted name.
  EXPECT_NE(json.find("tenant \\\"a\\\"\\\\weird"), std::string::npos);
  std::vector<trace::ParsedEvent> events;
  EXPECT_TRUE(trace::ParseChromeTrace(json, &events));
}

// --- metrics::SampleObserver seam -------------------------------------------

TEST(SampleObserverTest, OneCallPerRowInOrder) {
  struct Recorder final : metrics::SampleObserver {
    std::vector<std::size_t> rows;
    void OnSample(const metrics::TimeSeries& series,
                  std::size_t row) override {
      ASSERT_EQ(row + 1, series.rows());
      rows.push_back(row);
    }
  };
  sim::Simulator sim;
  metrics::MetricRegistry registry;
  ssd::Config config = ssd::Config::Small();
  config.metrics = &registry;
  ssd::Device device(&sim, config);
  const std::uint64_t n = device.num_blocks();

  Recorder recorder;
  metrics::Sampler sampler(&sim, &registry, 1'000'000);
  sampler.set_observer(&recorder);
  sampler.Start();
  workload::SequentialPattern fill(0, n, /*is_write=*/true);
  (void)workload::RunClosedLoop(&sim, &device, &fill, n / 2, 4);
  sim.Run();
  sampler.Stop();

  ASSERT_EQ(recorder.rows.size(), sampler.series().rows());
  for (std::size_t i = 0; i < recorder.rows.size(); ++i) {
    EXPECT_EQ(recorder.rows[i], i);
  }
}

}  // namespace
}  // namespace postblock
