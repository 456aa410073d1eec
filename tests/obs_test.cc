// src/obs: engine profiler and SLO watchdog. The load-bearing
// properties: the profiler's wall buckets tile every window exactly
// (time conservation), attaching either instrument is
// schedule-byte-identical, the watchdog's breach stream is
// deterministic across reruns, and both exports (Perfetto timeline,
// JSON reports) round-trip — including names that need JSON escaping.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/json.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/engine_profiler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/sharded_device.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "trace/tracer.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

/// The full ssd::Device on the sharded engine (four channel shards
/// plus the controller shard), aged so GC relocations cross the seam.
ssd::Config EngineConfig() {
  ssd::Config config;
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 2;
  config.geometry.planes_per_lun = 1;
  config.geometry.blocks_per_plane = 24;
  config.geometry.pages_per_block = 16;
  config.geometry.page_size_bytes = 4096;
  return config;
}

ssd::ShardedDeviceRun SmallRun(std::uint32_t workers,
                               obs::EngineProfiler* profiler) {
  ssd::ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 16;
  run.total_ios = 1500;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.observer = profiler;
  return run;
}

// --- EngineProfiler ---------------------------------------------------------

TEST(EngineProfilerTest, WallBucketsTileEveryWindowExactly) {
  obs::EngineProfilerConfig pc;
  pc.max_window_records = 1 << 20;  // retain every window of this run
  pc.sample_every = 1;              // exhaustive: observe all windows
  obs::EngineProfiler profiler(pc);
  ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(2, &profiler));
  sim.Run();

  ASSERT_GT(profiler.windows_observed(), 0u);
  // The run is small enough that the ring retained every window; the
  // folded totals and the ring must describe the same history.
  ASSERT_EQ(profiler.windows_dropped(), 0u);
  ASSERT_EQ(profiler.windows().size(), profiler.windows_observed());
  const std::uint32_t shards = profiler.shards();
  ASSERT_EQ(shards, EngineConfig().geometry.channels + 1);

  // Per shard: busy + idle + barrier telescopes to the sum of window
  // wall spans, exactly — the conservation identity.
  std::uint64_t span_sum = 0;
  std::vector<std::uint64_t> busy(shards), idle(shards), barrier(shards),
      events(shards);
  for (const obs::WindowRecord& w : profiler.windows()) {
    ASSERT_EQ(w.shards.size(), shards);
    ASSERT_LE(w.wall_begin_ns, w.wall_end_ns);
    span_sum += w.wall_end_ns - w.wall_begin_ns;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const obs::WindowRecord::ShardSpan& sp = w.shards[s];
      ASSERT_LE(w.wall_begin_ns, sp.wall_begin_ns);
      ASSERT_LE(sp.wall_begin_ns, sp.wall_end_ns);
      ASSERT_LE(sp.wall_end_ns, w.wall_end_ns);
      idle[s] += sp.wall_begin_ns - w.wall_begin_ns;
      busy[s] += sp.wall_end_ns - sp.wall_begin_ns;
      barrier[s] += w.wall_end_ns - sp.wall_end_ns;
      events[s] += sp.events;
    }
  }
  EXPECT_EQ(profiler.total_window_wall_ns(), span_sum);
  std::uint64_t total_events = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const obs::ShardProfile& p = profiler.shard_profiles()[s];
    EXPECT_EQ(p.busy_wall_ns, busy[s]) << "shard " << s;
    EXPECT_EQ(p.idle_wall_ns, idle[s]) << "shard " << s;
    EXPECT_EQ(p.barrier_wall_ns, barrier[s]) << "shard " << s;
    EXPECT_EQ(p.events, events[s]) << "shard " << s;
    EXPECT_EQ(p.busy_wall_ns + p.idle_wall_ns + p.barrier_wall_ns,
              span_sum)
        << "shard " << s << ": buckets must tile the window spans";
    total_events += p.events;
  }
  // Every committed event was attributed to exactly one shard-window.
  EXPECT_EQ(total_events, sim.engine()->events_executed());
  // Seam traffic flowed and was attributed in the flow matrix.
  EXPECT_EQ(profiler.messages(), sim.engine()->messages_delivered());
  std::uint64_t matrix_sum = 0;
  for (const std::uint64_t v : profiler.message_matrix()) matrix_sum += v;
  EXPECT_EQ(matrix_sum, profiler.messages());
  EXPECT_GT(profiler.slack_hist().count(), 0u);
}

TEST(EngineProfilerTest, SamplingObservesEveryNthWindowExactly) {
  // Reference: exhaustive capture of the same (deterministic) run.
  obs::EngineProfilerConfig full;
  full.sample_every = 1;
  obs::EngineProfiler exhaustive(full);
  ssd::ShardedDeviceSim ref(EngineConfig(), SmallRun(0, &exhaustive));
  ref.Run();

  obs::EngineProfilerConfig pc;
  pc.sample_every = 4;
  obs::EngineProfiler profiler(pc);
  ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(0, &profiler));
  sim.Run();

  // Sampling is invisible to the schedule...
  EXPECT_EQ(sim.CombinedFingerprint(), ref.CombinedFingerprint());
  EXPECT_EQ(sim.engine()->rounds(), ref.engine()->rounds());
  // ...and observes windows 1, 5, 9, ... — ceil(rounds / 4) of them
  // (the first window always samples).
  const std::uint64_t rounds = sim.engine()->rounds();
  EXPECT_EQ(exhaustive.windows_observed(), rounds);
  EXPECT_EQ(profiler.windows_observed(), (rounds + 3) / 4);
  ASSERT_GT(profiler.windows_observed(), 0u);

  // Conservation still tiles exactly over the sampled set, and the
  // flow matrix matches the OnMessage stream it actually saw.
  for (const obs::ShardProfile& p : profiler.shard_profiles()) {
    EXPECT_EQ(p.busy_wall_ns + p.idle_wall_ns + p.barrier_wall_ns,
              profiler.total_window_wall_ns());
  }
  EXPECT_LT(profiler.messages(), exhaustive.messages());
  std::uint64_t matrix_sum = 0;
  for (const std::uint64_t v : profiler.message_matrix()) matrix_sum += v;
  EXPECT_EQ(matrix_sum, profiler.messages());
}

TEST(EngineProfilerTest, AttachingIsScheduleByteIdentical) {
  ssd::ShardedDeviceSim bare(EngineConfig(), SmallRun(0, nullptr));
  bare.Run();
  const std::uint64_t want_fp = bare.CombinedFingerprint();
  const std::uint64_t want_ev = bare.engine()->events_executed();

  for (const std::uint32_t workers : {0u, 2u}) {
    obs::EngineProfiler profiler;
    ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(workers, &profiler));
    sim.Run();
    EXPECT_EQ(sim.CombinedFingerprint(), want_fp) << "workers=" << workers;
    EXPECT_EQ(sim.engine()->events_executed(), want_ev)
        << "workers=" << workers;
  }
}

TEST(EngineProfilerTest, ChromeJsonRoundTripsThroughTheReParser) {
  obs::EngineProfiler profiler;
  ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(2, &profiler));
  sim.Run();

  std::vector<trace::ParsedEvent> events;
  ASSERT_TRUE(trace::ParseChromeTrace(profiler.ToChromeJson(), &events));

  std::uint64_t window_x = 0, shard_x = 0;
  bool saw_process_meta = false;
  for (const trace::ParsedEvent& e : events) {
    EXPECT_EQ(e.pid, trace::kPidEngineWall);
    if (e.ph == 'M' && e.meta_name == "engine-wall") saw_process_meta = true;
    if (e.ph != 'X') continue;
    if (e.tid == 0) {
      EXPECT_EQ(e.name, "window");
      ++window_x;
    } else {
      ASSERT_LE(e.tid, profiler.shards());
      EXPECT_TRUE(e.name == "busy" || e.name == "idle") << e.name;
      ++shard_x;
    }
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_EQ(window_x, profiler.windows().size());
  EXPECT_EQ(shard_x, profiler.windows().size() * profiler.shards());
}

TEST(EngineProfilerTest, MergedJsonKeepsBothPidSpaces) {
  obs::EngineProfiler profiler;
  ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(0, &profiler));
  sim.Run();

  // A sim-time trace with one marker on a flash-pid track.
  trace::Tracer tracer(64);
  tracer.set_enabled(true);
  const std::uint32_t track =
      tracer.RegisterTrack(trace::kPidFlash, "health");
  tracer.Mark(trace::Stage::kSlo, trace::Origin::kMeta, 1, track, 1000);

  std::vector<trace::ParsedEvent> events;
  ASSERT_TRUE(trace::ParseChromeTrace(
      profiler.MergedChromeJson(trace::ToChromeJson(tracer)), &events));
  bool saw_wall = false, saw_sim = false;
  for (const trace::ParsedEvent& e : events) {
    if (e.pid == trace::kPidEngineWall) saw_wall = true;
    if (e.pid == trace::kPidFlash) saw_sim = true;
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
}

TEST(EngineProfilerTest, ReportJsonCarriesMetaAndTotals) {
  obs::EngineProfiler profiler;
  ssd::ShardedDeviceSim sim(EngineConfig(), SmallRun(0, &profiler));
  sim.Run();
  const ssd::Config config = EngineConfig();
  const std::string report =
      profiler.ReportJson(bench::MetaJsonFields(&config, /*workers=*/0));
  EXPECT_NE(report.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(report.find("\"shards\""), std::string::npos);
  EXPECT_NE(report.find("\"lookahead_slack_ns\""), std::string::npos);
  EXPECT_NE(report.find("\"message_matrix\""), std::string::npos);
}

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
