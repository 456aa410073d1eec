#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "blocklayer/request.h"
#include "blocklayer/simple_device.h"
#include "db/storage_manager.h"
#include "ftl/append_ftl.h"
#include "ftl/dftl.h"
#include "ftl/page_ftl.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "vbd/backend.h"
#include "vbd/frontend.h"
#include "workload/patterns.h"

namespace postblock::metrics {
namespace {

// --- MetricRegistry ---------------------------------------------------------

// A counted event lives in its owner's Counters; the registry reads it.
TEST(MetricRegistryTest, PolledCountersReadTheirOwnersCounters) {
  MetricRegistry r;
  Counters owner;
  const Id a = r.AddPolledCounter("a", [&owner] { return owner.Get("a"); });
  const Id b = r.AddPolledCounter("b", [&owner] { return owner.Get("b"); });
  owner.Increment("a");
  owner.Add("b", 10);
  owner.Add("b", 5);
  EXPECT_EQ(r.num_polled(), 2u);
  EXPECT_EQ(r.PollCounter(a), 1u);
  EXPECT_EQ(r.PollCounter(b), 15u);
  EXPECT_EQ(r.polled_name(a), "a");
  EXPECT_EQ(r.CounterByName("b"), 15u);
  EXPECT_EQ(r.CounterByName("nope", 42), 42u);
  EXPECT_TRUE(r.Has("a"));
  EXPECT_FALSE(r.Has("nope"));
}

TEST(MetricRegistryTest, PolledCountersAndGauges) {
  MetricRegistry r;
  std::uint64_t v = 7;
  double g = 1.5;
  const Id p = r.AddPolledCounter("p", [&v] { return v; });
  const Id q = r.AddGauge("g", [&g] { return g; });
  EXPECT_EQ(r.PollCounter(p), 7u);
  EXPECT_DOUBLE_EQ(r.PollGauge(q), 1.5);
  v = 9;
  g = -2.0;
  EXPECT_EQ(r.PollCounter(p), 9u);   // reads live state, not a copy
  EXPECT_DOUBLE_EQ(r.PollGauge(q), -2.0);
  EXPECT_EQ(r.CounterByName("p"), 9u);
  EXPECT_TRUE(r.Has("g"));
}

TEST(MetricRegistryTest, HistogramTotalSurvivesWindowReset) {
  MetricRegistry r;
  const Id h = r.AddHistogram("lat");
  r.Record(h, 100);
  r.Record(h, 200);
  EXPECT_EQ(r.window(h)->count(), 2u);
  EXPECT_EQ(r.hist_total(h), 2u);
  r.window(h)->Reset();  // what the sampler does each interval
  r.Record(h, 300);
  EXPECT_EQ(r.window(h)->count(), 1u);  // window is per-interval...
  EXPECT_EQ(r.hist_total(h), 3u);       // ...the total is cumulative
  EXPECT_TRUE(r.Has("lat"));
}

TEST(MetricRegistryTest, NamesAreSharedAcrossFamiliesButUniqueWithin) {
  MetricRegistry r;
  r.AddPolledCounter("x", [] { return std::uint64_t{0}; });
  r.AddHistogram("h");
  r.AddGauge("g", [] { return 0.0; });
  EXPECT_TRUE(r.Has("x"));
  EXPECT_TRUE(r.Has("h"));
  EXPECT_TRUE(r.Has("g"));
}

// A second stream under a taken name would shadow the first one's
// column (FinalU64 reads the first match); every build rejects it.
TEST(MetricRegistryDeathTest, DuplicateNameAborts) {
  MetricRegistry r;
  r.AddPolledCounter("x", [] { return std::uint64_t{0}; });
  EXPECT_DEATH(r.AddGauge("x", [] { return 0.0; }), "registered twice");
}

// --- Sampler: timing --------------------------------------------------------

// Every snapshot of a busy run lands exactly on the t0 + k*interval
// grid — the tick is an ordinary timing-wheel event, executed at its
// precise timestamp.
TEST(SamplerTest, SamplesLandOnExactIntervalBoundaries) {
  sim::Simulator sim;
  MetricRegistry reg;
  std::uint64_t work = 0;
  reg.AddPolledCounter("work", [&work] { return work; });

  // Busy background load at an interval co-prime with the sampler's,
  // so device events never coincide with tick boundaries.
  std::function<void()> churn = [&] {
    ++work;
    if (work < 500) sim.Schedule(7, [&churn] { churn(); });
  };
  sim.Schedule(0, [&churn] { churn(); });

  Sampler sampler(&sim, &reg, /*interval_ns=*/100);
  sampler.Start();
  sim.Run();
  sampler.Stop();

  const auto& t = sampler.series().timestamps();
  ASSERT_GE(t.size(), 3u);
  EXPECT_EQ(t.front(), 0u);  // baseline row at Start()
  // All interior rows are exact multiples of the interval; only the
  // Stop() row may land off-grid (at the drained end time).
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    EXPECT_EQ(t[i] % 100, 0u) << "row " << i << " at t=" << t[i];
    EXPECT_EQ(t[i], t[i - 1] + 100) << "missed an interval before row " << i;
  }
  // Sampled values are cumulative and non-decreasing.
  const Column* c = sampler.series().Find("work");
  ASSERT_NE(c, nullptr);
  for (std::size_t i = 1; i < c->u64.size(); ++i) {
    EXPECT_GE(c->u64[i], c->u64[i - 1]);
  }
  EXPECT_EQ(sampler.series().FinalU64("work"), 500u);
}

// A tick that finds the queue otherwise empty parks instead of
// rescheduling — a sampled run terminates, at most one interval past
// the point where the simulation ran dry.
TEST(SamplerTest, ParksWhenTheQueueDrains) {
  sim::Simulator sim;
  MetricRegistry reg;
  reg.AddPolledCounter("c", [] { return std::uint64_t{0}; });

  sim.Schedule(250, [] {});  // last real event at t=250

  Sampler sampler(&sim, &reg, /*interval_ns=*/100);
  sampler.Start();
  sim.Run();  // must terminate
  EXPECT_TRUE(sampler.parked());
  EXPECT_LE(sim.Now(), 250u + 100u);

  // Resume() re-arms on the same grid after more work arrives.
  sim.Schedule(400, [] {});
  sampler.Resume();
  sim.Run();
  const auto& t = sampler.series().timestamps();
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_EQ(t[i] % 100, 0u);
  }
  EXPECT_GE(t.back(), 400u + 100u - 100u);  // sampled past the new work
  sampler.Stop();
}

// Stop() takes a final row at the drained time and never duplicates a
// row that already exists at the current timestamp.
TEST(SamplerTest, StopTakesOneFinalRow) {
  sim::Simulator sim;
  MetricRegistry reg;
  std::uint64_t c = 0;
  reg.AddPolledCounter("c", [&c] { return c; });
  sim.Schedule(50, [&c] { c += 5; });

  Sampler sampler(&sim, &reg, /*interval_ns=*/1000);
  sampler.Start();
  sim.Run();
  sampler.Stop();
  const std::size_t rows = sampler.series().rows();
  sampler.Stop();  // idempotent
  EXPECT_EQ(sampler.series().rows(), rows);
  EXPECT_EQ(sampler.series().FinalU64("c"), 5u);
  // The final row reflects the fully drained run even though the run
  // ended between interval boundaries.
  EXPECT_GE(sampler.series().timestamps().back(), 50u);
}

// A zero interval would re-arm the tick at t0 forever: the clock would
// never advance and no other event would run.
TEST(SamplerDeathTest, ZeroIntervalAborts) {
  sim::Simulator sim;
  MetricRegistry reg;
  EXPECT_DEATH(Sampler(&sim, &reg, /*interval_ns=*/0),
               "interval must be positive");
}

// --- Sampler: windowed histograms -------------------------------------------

// Percentile sub-columns describe each interval in isolation: the
// window resets after every snapshot, while `.count` stays cumulative.
TEST(SamplerTest, WindowedHistogramResetsPerInterval) {
  sim::Simulator sim;
  MetricRegistry reg;
  const Id h = reg.AddHistogram("lat");

  sim.Schedule(50, [&reg, h] { reg.Record(h, 10); });
  sim.Schedule(150, [&reg, h] { reg.Record(h, 1000); });

  Sampler sampler(&sim, &reg, /*interval_ns=*/100);
  sampler.Start();
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  const Column* wc = ts.Find("lat.window_count");
  const Column* cum = ts.Find("lat.count");
  const Column* p50 = ts.Find("lat.p50");
  ASSERT_NE(wc, nullptr);
  ASSERT_NE(cum, nullptr);
  ASSERT_NE(p50, nullptr);

  const auto& t = ts.timestamps();
  // Row at t=100 sees only the first record; row at t=200 only the
  // second — windows never leak across intervals.
  std::size_t r100 = 0, r200 = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] == 100) r100 = i;
    if (t[i] == 200) r200 = i;
  }
  ASSERT_GT(r100, 0u);
  ASSERT_GT(r200, r100);
  EXPECT_EQ(wc->u64[r100], 1u);
  EXPECT_EQ(cum->u64[r100], 1u);
  EXPECT_EQ(p50->u64[r100], 10u);  // exact: small values are exact buckets
  EXPECT_EQ(wc->u64[r200], 1u);
  EXPECT_EQ(cum->u64[r200], 2u);  // cumulative count keeps growing
  EXPECT_NEAR(static_cast<double>(p50->u64[r200]), 1000.0, 1000.0 * 0.05);
}

// --- TimeSeries helpers -----------------------------------------------------

TEST(TimeSeriesTest, DeltaU64ClampsNonMonotone) {
  Column c;
  c.u64 = {5, 12, 3, 3};
  EXPECT_EQ(TimeSeries::DeltaU64(c, 0), 5u);
  EXPECT_EQ(TimeSeries::DeltaU64(c, 1), 7u);
  EXPECT_EQ(TimeSeries::DeltaU64(c, 2), 0u);  // post-crash reset: clamp
  EXPECT_EQ(TimeSeries::DeltaU64(c, 3), 0u);
  EXPECT_EQ(TimeSeries::DeltaU64(c, 9), 0u);  // out of range
}

TEST(TimeSeriesTest, CsvAndJsonExport) {
  sim::Simulator sim;
  MetricRegistry reg;
  std::uint64_t ops = 0;
  reg.AddPolledCounter("ops", [&ops] { return ops; });
  reg.AddGauge("load", [] { return 0.25; });
  sim.Schedule(10, [&ops] { ops += 3; });
  sim.Schedule(110, [&ops] { ops += 4; });

  Sampler sampler(&sim, &reg, /*interval_ns=*/100);
  sampler.Start();
  sim.Run();
  sampler.Stop();

  // Unique per process: gtest_discover_tests turns every TEST into its
  // own ctest entry, and `ctest -j` runs them concurrently out of one
  // TempDir — fixed artifact names would let parallel test processes
  // clobber each other's files.
  const std::string stem = ::testing::TempDir() + "/metrics_test." +
                           std::to_string(::getpid());
  const std::string csv = stem + ".csv";
  const std::string json = stem + ".json";
  ASSERT_TRUE(sampler.series().WriteCsv(csv).ok());
  ASSERT_TRUE(
      sampler.series().WriteJson(json, "\"git_sha\": \"test\"").ok());

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };

  const std::string csv_text = slurp(csv);
  EXPECT_NE(csv_text.find("time_ns,ops,load"), std::string::npos);
  // One header line + one line per row.
  std::size_t lines = 0;
  for (char ch : csv_text) lines += ch == '\n';
  EXPECT_EQ(lines, 1 + sampler.series().rows());

  const std::string json_text = slurp(json);
  EXPECT_NE(json_text.find("\"git_sha\": \"test\""), std::string::npos);
  EXPECT_NE(json_text.find("\"ops\": {\"kind\": \"counter\""),
            std::string::npos);
  EXPECT_NE(json_text.find("\"load\": {\"kind\": \"gauge\""),
            std::string::npos);
  EXPECT_EQ(sampler.series().FinalU64("ops"), 7u);

  std::remove(csv.c_str());
  std::remove(json.c_str());
}

// --- Whole-stack contracts --------------------------------------------------

void RunRandom(sim::Simulator* sim, blocklayer::BlockDevice* device,
               bool writes, std::uint64_t ops, std::uint32_t depth,
               std::uint64_t seed) {
  workload::RandomPattern pattern(0, device->num_blocks(), writes, 1, seed);
  const auto r = workload::RunClosedLoop(sim, device, &pattern, ops, depth);
  ASSERT_EQ(r.errors, 0u);
}

// Ages a device past its first GC (sequential fill + 2x churn).
void Age(sim::Simulator* sim, blocklayer::BlockDevice* device) {
  const std::uint64_t n = device->num_blocks();
  workload::SequentialPattern fill(0, n, /*is_write=*/true);
  (void)workload::RunClosedLoop(sim, device, &fill, n, 8);
  RunRandom(sim, device, /*writes=*/true, 2 * n, 8, /*seed=*/99);
}

// Device-side fingerprint of a run: every observable the *simulated
// schedule* determines. Deliberately excludes the final sim time — the
// sampler's last (parked) tick legitimately extends the clock by up to
// one interval after the device has drained; the device schedule itself
// must be untouched.
struct Fingerprint {
  std::uint64_t completions = 0;
  std::uint64_t gc_moves = 0;
  std::uint64_t pages_programmed = 0;
  std::uint64_t read_count = 0;
  std::uint64_t read_max = 0;
  double read_sum = 0;

  bool operator==(const Fingerprint& o) const {
    return completions == o.completions && gc_moves == o.gc_moves &&
           pages_programmed == o.pages_programmed &&
           read_count == o.read_count && read_max == o.read_max &&
           read_sum == o.read_sum;
  }
};

// Metrics observe the schedule; they must never change it. The same
// workload bare, with a registry attached, and with a registry plus a
// live sampler must do identical device work with identical timing.
TEST(MetricsStackTest, SamplingNeverPerturbsTheSchedule) {
  auto run = [](bool with_metrics, bool with_sampler) {
    sim::Simulator sim;
    MetricRegistry reg;
    ssd::Config cfg = ssd::Config::Small();
    if (with_metrics) cfg.metrics = &reg;
    ssd::Device device(&sim, cfg);
    Sampler sampler(&sim, &reg, /*interval_ns=*/50'000);
    if (with_sampler) sampler.Start();
    Age(&sim, &device);
    if (with_sampler) sampler.Resume();  // Age drains the queue twice
    RunRandom(&sim, &device, /*writes=*/false, 1000, 4, /*seed=*/8);
    sim.Run();
    if (with_sampler) sampler.Stop();
    Fingerprint fp;
    fp.completions = device.counters().Get("completions");
    fp.gc_moves = device.ftl()->counters().Get("gc_page_moves");
    fp.pages_programmed =
        device.controller()->counters().Get("pages_programmed");
    fp.read_count = device.read_latency().count();
    fp.read_max = device.read_latency().max();
    fp.read_sum = device.read_latency().Mean() *
                  static_cast<double>(device.read_latency().count());
    return fp;
  };

  const Fingerprint bare = run(false, false);
  const Fingerprint attached = run(true, false);
  const Fingerprint sampled = run(true, true);
  EXPECT_GT(bare.gc_moves, 0u);
  EXPECT_TRUE(attached == bare);
  EXPECT_TRUE(sampled == bare);
}

// The final sampled cumulative rows equal the stack's `Counters`. The
// counter streams poll those Counters, so this checks that Stop()
// samples the fully drained run; the windowed histograms' cumulative
// totals, which are pushed, must agree with the always-on histograms.
TEST(MetricsStackTest, FinalSampledRowEqualsCounters) {
  sim::Simulator sim;
  MetricRegistry reg;
  ssd::Config cfg = ssd::Config::Small();
  cfg.metrics = &reg;
  ssd::Device device(&sim, cfg);

  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();
  Age(&sim, &device);
  sampler.Resume();
  RunRandom(&sim, &device, /*writes=*/true, 1500, 4, /*seed=*/3);
  sampler.Resume();
  RunRandom(&sim, &device, /*writes=*/false, 1500, 4, /*seed=*/4);
  sim.Run();
  sampler.Stop();

  ASSERT_GT(sampler.samples_taken(), 2u);
  const TimeSeries& ts = sampler.series();
  const Counters& flash = device.controller()->counters();

  // SSD streams read the flash layer's accounting.
  EXPECT_EQ(ts.FinalU64("ssd.pages_read"), flash.Get("pages_read"));
  EXPECT_EQ(ts.FinalU64("ssd.pages_programmed"),
            flash.Get("pages_programmed"));
  EXPECT_EQ(ts.FinalU64("ssd.blocks_erased"), flash.Get("blocks_erased"));
  EXPECT_GT(ts.FinalU64("ssd.pages_programmed"), 0u);
  EXPECT_GT(ts.FinalU64("ssd.blocks_erased"), 0u);

  // Device-level streams read Device::counters().
  EXPECT_EQ(ts.FinalU64("dev.requests"),
            device.counters().Get("requests"));
  EXPECT_EQ(ts.FinalU64("dev.completions"),
            device.counters().Get("completions"));

  // Histogram cumulative totals mirror the always-on histograms.
  EXPECT_EQ(ts.FinalU64("ssd.read_lat_ns.count"),
            device.controller()->read_latency().count());
  EXPECT_EQ(ts.FinalU64("ssd.program_lat_ns.count"),
            device.controller()->program_latency().count());
  EXPECT_EQ(ts.FinalU64("dev.read_lat_ns.count"),
            device.read_latency().count());
  EXPECT_EQ(ts.FinalU64("dev.write_lat_ns.count"),
            device.write_latency().count());

  // Polled FTL counters read the same Counters the FTL maintains.
  EXPECT_EQ(ts.FinalU64("ftl.gc_page_moves"),
            device.ftl()->counters().Get("gc_page_moves"));
  EXPECT_EQ(ts.FinalU64("ftl.host_writes"),
            device.ftl()->counters().Get("host_writes"));
  EXPECT_GT(ts.FinalU64("ftl.gc_page_moves"), 0u);

  // And the registry's name lookup agrees with the sampled columns.
  EXPECT_EQ(reg.CounterByName("ssd.pages_programmed"),
            ts.FinalU64("ssd.pages_programmed"));
}

// A block-layer stack registers its own metrics through the same
// registry; queue/inflight gauges exist and the submitted/completed
// counts balance on a drained run.
TEST(MetricsStackTest, BlockLayerMetrics) {
  sim::Simulator sim;
  MetricRegistry reg;
  ssd::Config cfg = ssd::Config::Small();
  cfg.metrics = &reg;
  ssd::Device device(&sim, cfg);
  blocklayer::BlockLayerConfig bl_cfg;
  bl_cfg.metrics = &reg;
  blocklayer::BlockLayer layer(&sim, &device, bl_cfg);

  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();
  RunRandom(&sim, &layer, /*writes=*/true, 2000, 8, /*seed=*/5);
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  EXPECT_EQ(ts.FinalU64("blk.submitted"), 2000u);
  EXPECT_EQ(ts.FinalU64("blk.completed"), 2000u);
  EXPECT_EQ(ts.FinalU64("blk.lat_ns.count"), 2000u);
  EXPECT_TRUE(reg.Has("blk.queue_depth"));
  EXPECT_TRUE(reg.Has("blk.inflight"));
  // Drained: the inflight gauge reads zero at the end.
  const Column* inflight = ts.Find("blk.inflight");
  ASSERT_NE(inflight, nullptr);
  EXPECT_DOUBLE_EQ(inflight->f64.back(), 0.0);
  EXPECT_GT(ts.FinalU64("blk.cpu_busy_ns"), 0u);
}

// --- Registration inventory, one case per stack -------------------------------
//
// Each case attaches one registry to one stack, samples a short run and
// pins (a) the exact set of registered streams and their kinds and (b)
// that every stream read from a `Counters` entry ends on that entry's
// value. The inventory is read off the sampled series, so it is what a
// CSV consumer sees; EXPERIMENTS.md E15's table is generated from it.

// "name:kind" per registered metric: kind is counter, gauge or
// histogram (a histogram's six sub-columns collapse onto its name).
std::vector<std::string> Inventory(const TimeSeries& ts) {
  const std::string kWindow = ".window_count";
  std::set<std::string> hists;
  for (const Column& c : ts.columns()) {
    if (c.name.size() > kWindow.size() &&
        c.name.compare(c.name.size() - kWindow.size(), kWindow.size(),
                       kWindow) == 0) {
      hists.insert(c.name.substr(0, c.name.size() - kWindow.size()));
    }
  }
  std::set<std::string> out;
  for (const std::string& h : hists) out.insert(h + ":histogram");
  for (const Column& c : ts.columns()) {
    const std::size_t dot = c.name.rfind('.');
    if (dot != std::string::npos && hists.count(c.name.substr(0, dot))) {
      continue;
    }
    out.insert(c.name + (c.is_float ? ":gauge" : ":counter"));
  }
  return {out.begin(), out.end()};
}

// The inventory, one piece per stack layer (EXPERIMENTS.md E15's rows).
using Names = std::vector<std::string>;

const Names kSsd = {
    "ssd.bad_blocks:gauge",           "ssd.blocks_erased:counter",
    "ssd.blocks_retired:counter",     "ssd.chan0.busy_ns:counter",
    "ssd.chan0.gc_busy_ns:counter",   "ssd.chan1.busy_ns:counter",
    "ssd.chan1.gc_busy_ns:counter",   "ssd.copybacks:counter",
    "ssd.energy_nj:counter",          "ssd.erase_failures:counter",
    "ssd.erase_lat_ns:histogram",     "ssd.gc_stall_read_ns:counter",
    "ssd.gc_stall_write_ns:counter",  "ssd.pages_programmed:counter",
    "ssd.pages_read:counter",         "ssd.program_lat_ns:histogram",
    "ssd.read_lat_ns:histogram",      "ssd.read_only:gauge",
    "ssd.read_retries:counter",       "ssd.read_retry_lat_ns:histogram",
    "ssd.reads_correctable:counter",  "ssd.reads_uncorrectable:counter",
    "ssd.spare_blocks:gauge",         "ssd.units_busy_ns:counter",
    "ssd.units_gc_busy_ns:counter",   "ssd.wear_max:gauge",
    "ssd.wear_min:gauge",             "ssd.wear_spread:gauge",
};
const Names kDev = {
    "dev.buffer_read_hits:counter",   "dev.completions:counter",
    "dev.read_lat_ns:histogram",      "dev.requests:counter",
    "dev.write_amplification:gauge",  "dev.write_buffer_pages:gauge",
    "dev.write_lat_ns:histogram",
};
const Names kFtl = {
    "ftl.gc_erases:counter",          "ftl.gc_page_moves:counter",
    "ftl.gc_runs:counter",            "ftl.host_reads:counter",
    "ftl.host_writes:counter",        "ftl.trims:counter",
    "ftl.write_amplification:gauge",  "ftl.write_stalls:counter",
};
const Names kPageFtl = {
    "ftl.blocks_retired:counter",     "ftl.free_blocks:gauge",
    "ftl.gc_active_luns:gauge",       "ftl.min_free_blocks:gauge",
    "ftl.pages_poisoned:counter",     "ftl.refresh_runs:counter",
    "ftl.spare_blocks:gauge",         "ftl.stalled_luns:gauge",
    "ftl.wl_page_moves:counter",
};
const Names kDftl = {
    "dftl.cmt_hits:counter",          "dftl.cmt_misses:counter",
    "dftl.cmt_pages:gauge",           "dftl.map_reads:counter",
    "dftl.map_writes:counter",
};
const Names kAppendFtl = {
    "ftl.free_blocks:gauge",          "ftl.live_pages:gauge",
    "ftl.mapping_table_bytes:gauge",  "ftl.migrate_page_moves:counter",
    "ftl.reclaim_erases:counter",
};
const Names kBlk = {
    "blk.back_merges:counter",        "blk.completed:counter",
    "blk.cpu_busy_ns:counter",        "blk.inflight:gauge",
    "blk.lat_ns:histogram",           "blk.queue_depth:gauge",
    "blk.submitted:counter",
};
Names BlkQueue(int q) {
  const std::string p = "blk.q" + std::to_string(q);
  return {p + ".depth:gauge", p + ".dispatched:counter",
          p + ".inflight:gauge", p + ".lat_ns:histogram"};
}
const Names kVbd = {
    "vbd.completed:counter",          "vbd.rejected:counter",
    "vbd.submitted:counter",
};
const Names kDb = {
    "bp.evictions:counter",           "bp.hit_rate:gauge",
    "bp.hits:counter",                "bp.misses:counter",
    "bp.writebacks:counter",          "bt.deletes:counter",
    "bt.gets:counter",                "bt.node_splits:counter",
    "bt.puts:counter",                "db.checkpoints:counter",
    "db.commit_lat_ns:histogram",     "db.gets:counter",
    "db.txns:counter",                "wal.bytes:counter",
    "wal.commits:counter",            "wal.ops_logged:counter",
    "wal.padded_bytes:counter",
};
const Names kDirect = {
    "direct.completed:counter",       "direct.cpu_busy_ns:counter",
    "direct.inflight:gauge",          "direct.submitted:counter",
};
const Names kPcm = {
    "pcm.bus_busy_ns:counter",        "pcm.lines_written:counter",
    "pcm.max_line_wear:gauge",        "pcm.reads:counter",
    "pcm.writes:counter",
};

// The sorted union of inventory pieces.
Names Want(std::initializer_list<Names> pieces) {
  std::set<std::string> out;
  for (const Names& p : pieces) out.insert(p.begin(), p.end());
  return {out.begin(), out.end()};
}

// The FTL pieces a device of `kind` registers.
Names FtlPieces(ssd::FtlKind kind) {
  switch (kind) {
    case ssd::FtlKind::kPageMap: return Want({kFtl, kPageFtl});
    case ssd::FtlKind::kDftl: return Want({kFtl, kDftl});
    case ssd::FtlKind::kVisionAppend: return Want({kFtl, kAppendFtl});
    default: return kFtl;
  }
}

using Rows = std::vector<std::pair<std::string, std::uint64_t>>;

// Every listed stream is sampled and its final row equals its source.
void ExpectFinalRows(const TimeSeries& ts, const Rows& rows) {
  for (const auto& [name, source] : rows) {
    ASSERT_NE(ts.Find(name), nullptr) << name << " not sampled";
    EXPECT_EQ(ts.FinalU64(name), source) << name;
  }
}

// Rows every device stack exposes, read from the controller's flash
// Counters and the device's own.
Rows DeviceRows(ssd::Device& device) {
  const Counters& flash = device.controller()->counters();
  const Counters& dev = device.counters();
  return {
      {"ssd.pages_read", flash.Get("pages_read")},
      {"ssd.pages_programmed", flash.Get("pages_programmed")},
      {"ssd.blocks_erased", flash.Get("blocks_erased")},
      {"ssd.copybacks", flash.Get("copybacks")},
      {"ssd.read_retries", flash.Get("read_retries")},
      {"ssd.blocks_retired", flash.Get("erase_failures")},
      {"ssd.reads_correctable", flash.Get("reads_correctable")},
      {"ssd.reads_uncorrectable", flash.Get("reads_uncorrectable")},
      {"ssd.erase_failures", flash.Get("erase_failures")},
      {"ssd.energy_nj", flash.Get("energy_nj")},
      {"dev.requests", dev.Get("requests")},
      {"dev.completions", dev.Get("completions")},
      {"dev.buffer_read_hits", dev.Get("buffer_read_hits")},
  };
}

// The FTL's rows: the common set, plus each kind's extras.
Rows FtlRows(ssd::Device& device) {
  ftl::Ftl* f = device.ftl();
  const Counters* gc = &f->counters();
  Rows rows;
  if (auto* d = dynamic_cast<ftl::Dftl*>(f)) {
    gc = &d->base()->counters();
    for (const char* n : {"cmt_hits", "cmt_misses", "map_reads",
                          "map_writes"}) {
      rows.emplace_back(std::string("dftl.") + n, d->counters().Get(n));
    }
  }
  for (const char* n : {"host_reads", "host_writes", "trims"}) {
    rows.emplace_back(std::string("ftl.") + n, f->counters().Get(n));
  }
  for (const char* n : {"gc_runs", "gc_erases", "gc_page_moves",
                        "write_stalls"}) {
    rows.emplace_back(std::string("ftl.") + n, gc->Get(n));
  }
  if (dynamic_cast<ftl::PageFtl*>(f) != nullptr) {
    for (const char* n : {"wl_page_moves", "blocks_retired",
                          "pages_poisoned", "refresh_runs"}) {
      rows.emplace_back(std::string("ftl.") + n, f->counters().Get(n));
    }
  }
  if (dynamic_cast<ftl::AppendFtl*>(f) != nullptr) {
    for (const char* n : {"migrate_page_moves", "reclaim_erases"}) {
      rows.emplace_back(std::string("ftl.") + n, f->counters().Get(n));
    }
  }
  return rows;
}

// Nameless writes at queue depth 4, each freeing the name written
// `lag` writes earlier, so the append device reclaims blocks.
void RunNameless(sim::Simulator* sim, ssd::Device* device,
                 std::uint64_t writes, std::size_t lag) {
  std::vector<std::uint64_t> names;
  std::uint64_t issued = 0;
  std::function<void()> issue = [&] {
    if (issued == writes) return;
    const std::uint64_t token = ++issued;
    device->Submit(blocklayer::IoRequest::NamelessWrite(
        token, [&](const blocklayer::IoResult& r) {
          ASSERT_TRUE(r.status.ok()) << r.status;
          names.push_back(r.tokens[0]);
          if (names.size() > lag) {
            device->Submit(blocklayer::IoRequest::NamelessFree(
                names[names.size() - 1 - lag],
                [](const blocklayer::IoResult&) {}));
          }
          if (names.size() % 8 == 0) {
            device->Submit(blocklayer::IoRequest::NamelessRead(
                names.back(), [](const blocklayer::IoResult&) {}));
          }
          issue();
        }));
  };
  for (int i = 0; i < 4; ++i) issue();
  sim->Run();
  ASSERT_EQ(names.size(), writes);
}

class DeviceInventoryTest : public ::testing::TestWithParam<ssd::FtlKind> {
};

TEST_P(DeviceInventoryTest, PinsStreamsAndFinalRows) {
  sim::Simulator sim;
  MetricRegistry reg;
  ssd::Config cfg = ssd::Config::Small();
  cfg.ftl = GetParam();
  cfg.metrics = &reg;
  ssd::Device device(&sim, cfg);
  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();
  if (cfg.ftl == ssd::FtlKind::kVisionAppend) {
    RunNameless(&sim, &device, 3 * device.num_blocks() / 2, 256);
  } else {
    // Fill, then a 50% write mix long enough for GC to run.
    const std::uint64_t n = device.num_blocks();
    workload::SequentialPattern fill(0, n, /*is_write=*/true);
    (void)workload::RunClosedLoop(&sim, &device, &fill, n, 8);
    sampler.Resume();
    workload::MixedPattern mix(
        std::make_unique<workload::RandomPattern>(0, n, false, 1, 11),
        std::make_unique<workload::RandomPattern>(0, n, true, 1, 12),
        0.5, 13);
    (void)workload::RunClosedLoop(&sim, &device, &mix, n, 8);
  }
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  ASSERT_GT(ts.rows(), 2u);
  ExpectFinalRows(ts, DeviceRows(device));
  ExpectFinalRows(ts, FtlRows(device));
  EXPECT_GT(ts.FinalU64("ssd.pages_programmed"), 0u);
  EXPECT_GT(ts.FinalU64("ssd.blocks_erased"), 0u);
  EXPECT_EQ(ts.FinalU64("ssd.read_lat_ns.count"),
            device.controller()->read_latency().count());
  EXPECT_EQ(ts.FinalU64("dev.write_lat_ns.count"),
            device.write_latency().count());

  EXPECT_EQ(Inventory(ts), Want({kSsd, kDev, FtlPieces(cfg.ftl)}));
}

INSTANTIATE_TEST_SUITE_P(
    AllFtls, DeviceInventoryTest,
    ::testing::Values(ssd::FtlKind::kPageMap, ssd::FtlKind::kBlockMap,
                      ssd::FtlKind::kHybrid, ssd::FtlKind::kDftl,
                      ssd::FtlKind::kVisionAppend),
    [](const ::testing::TestParamInfo<ssd::FtlKind>& i) {
      switch (i.param) {
        case ssd::FtlKind::kPageMap: return std::string("PageMap");
        case ssd::FtlKind::kBlockMap: return std::string("BlockMap");
        case ssd::FtlKind::kHybrid: return std::string("Hybrid");
        case ssd::FtlKind::kDftl: return std::string("Dftl");
        default: return std::string("VisionAppend");
      }
    });

// A multi-queue block layer adds one set of blk.qN streams per queue.
TEST(MetricsInventoryTest, FourQueueBlockLayer) {
  sim::Simulator sim;
  MetricRegistry reg;
  blocklayer::SimpleBlockDevice dev(&sim, blocklayer::SimpleDeviceConfig{});
  blocklayer::BlockLayerConfig cfg;
  cfg.nr_queues = 4;
  cfg.metrics = &reg;
  blocklayer::BlockLayer layer(&sim, &dev, cfg);
  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();
  workload::SequentialPattern seq(0, 4096, /*is_write=*/true);
  (void)workload::RunClosedLoop(&sim, &layer, &seq, 4096, 16);
  sampler.Resume();
  RunRandom(&sim, &layer, /*writes=*/false, 2000, 16, /*seed=*/6);
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  std::uint64_t back_merges = 0;
  Rows rows = {{"blk.submitted", layer.counters().Get("submitted")},
               {"blk.completed", layer.counters().Get("completed")}};
  for (std::uint32_t q = 0; q < 4; ++q) {
    const Counters& c = layer.scheduler(q).counters();
    back_merges += c.Get("back_merges");
    rows.emplace_back("blk.q" + std::to_string(q) + ".dispatched",
                      c.Get("dispatched"));
    EXPECT_GT(c.Get("dispatched"), 0u) << "queue " << q;
  }
  rows.emplace_back("blk.back_merges", back_merges);
  ExpectFinalRows(ts, rows);
  EXPECT_EQ(ts.FinalU64("blk.lat_ns.count"), layer.latency().count());

  EXPECT_EQ(Inventory(ts),
            Want({kBlk, BlkQueue(0), BlkQueue(1), BlkQueue(2), BlkQueue(3)}));
}

// A vbd backend counts per backend; a tenant that opts in adds its own
// latency windows.
TEST(MetricsInventoryTest, VbdBackendWithOneTenant) {
  sim::Simulator sim;
  MetricRegistry reg;
  blocklayer::SimpleDeviceConfig dcfg;
  dcfg.num_blocks = 4096;
  blocklayer::SimpleBlockDevice dev(&sim, dcfg);
  vbd::BackendConfig bcfg;
  bcfg.metrics = &reg;
  vbd::Backend backend(&sim, &dev, bcfg);
  vbd::TenantConfig tc;
  tc.name = "db";
  tc.capacity_blocks = 2048;
  tc.register_metrics = true;
  vbd::Frontend* fe = backend.CreateTenant(tc).value();
  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();
  workload::SequentialPattern fill(0, 1024, /*is_write=*/true);
  (void)workload::RunClosedLoop(&sim, fe, &fill, 1024, 8);
  sampler.Resume();
  // Reads over written and never-written blocks (thin reads), plus one
  // out-of-namespace write the backend rejects.
  RunRandom(&sim, fe, /*writes=*/false, 1000, 8, /*seed=*/7);
  blocklayer::IoRequest bad;
  bad.op = blocklayer::IoOp::kWrite;
  bad.lba = tc.capacity_blocks;
  bad.nblocks = 1;
  bad.tokens = {1};
  bad.on_complete = [](const blocklayer::IoResult&) {};
  fe->Submit(std::move(bad));
  sampler.Resume();
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  const Counters& c = backend.counters();
  ExpectFinalRows(ts, {{"vbd.submitted", c.Get("submitted")},
                       {"vbd.completed", c.Get("completed")},
                       {"vbd.rejected", c.Get("rejected")}});
  EXPECT_EQ(ts.FinalU64("vbd.submitted"), fe->stats().submitted);
  EXPECT_EQ(ts.FinalU64("vbd.completed"), fe->stats().completed);
  EXPECT_EQ(ts.FinalU64("vbd.rejected"), 1u);
  EXPECT_EQ(ts.FinalU64("vbd.db.read_lat_ns.count"),
            fe->stats().read_latency.count());

  EXPECT_EQ(Inventory(ts),
            Want({kVbd, {"vbd.db.read_lat_ns:histogram",
                         "vbd.db.write_lat_ns:histogram"}}));
}

// The database stack: device + FTL below, then the classic block layer
// or the vision direct driver and PCM, then StorageManager's own
// db/wal/bp/bt streams.
class StorageInventoryTest : public ::testing::TestWithParam<db::Wiring> {};

TEST_P(StorageInventoryTest, PinsStreamsAndFinalRows) {
  const db::Wiring wiring = GetParam();
  sim::Simulator sim;
  MetricRegistry reg;
  ssd::Config dcfg = ssd::Config::Small();
  dcfg.geometry.blocks_per_plane = 64;
  dcfg.metrics = &reg;
  ssd::Device device(&sim, dcfg);
  db::StorageConfig cfg;
  cfg.wiring = wiring;
  cfg.buffer_frames = 64;
  cfg.block_layer.metrics = &reg;
  db::StorageManager manager(&sim, &device, cfg);
  manager.RegisterMetrics(&reg);
  Sampler sampler(&sim, &reg, /*interval_ns=*/100'000);
  sampler.Start();

  auto sync = [&](auto&& op) {
    bool fired = false;
    Status out = Status::Internal("pending");
    op([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    sampler.Resume();
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    ASSERT_TRUE(out.ok()) << out;
  };
  sync([&](db::StorageManager::StatusCb cb) {
    manager.Bootstrap(std::move(cb));
  });
  for (std::uint64_t k = 0; k < 300; ++k) {
    sync([&](db::StorageManager::StatusCb cb) {
      manager.Put(k * 7919 % 1000, k, std::move(cb));
    });
    if (k % 100 == 99) {
      sync([&](db::StorageManager::StatusCb cb) {
        manager.Checkpoint(std::move(cb));
      });
    }
  }
  for (std::uint64_t k = 0; k < 50; ++k) {
    bool fired = false;
    manager.Get(k * 7919 % 1000,
                [&](StatusOr<std::uint64_t>) { fired = true; });
    sampler.Resume();
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  }
  sampler.Resume();
  sim.Run();
  sampler.Stop();

  const TimeSeries& ts = sampler.series();
  ExpectFinalRows(ts, DeviceRows(device));
  ExpectFinalRows(ts, FtlRows(device));
  const Counters& dbc = manager.counters();
  Rows rows = {
      {"db.txns", dbc.Get("txns")},
      {"db.gets", dbc.Get("gets")},
      {"db.checkpoints", dbc.Get("checkpoints")},
      {"wal.commits", manager.wal()->counters().Get("commits")},
      {"wal.ops_logged", manager.wal()->counters().Get("ops_logged")},
      {"wal.bytes", manager.store()->counters().Get("sync_bytes")},
      {"wal.padded_bytes",
       manager.store()->counters().Get("sync_padded_bytes")},
  };
  for (const char* n : {"hits", "misses", "evictions", "writebacks"}) {
    rows.emplace_back(std::string("bp.") + n,
                      manager.buffer_pool()->counters().Get(n));
  }
  for (const char* n : {"gets", "puts", "deletes", "node_splits"}) {
    rows.emplace_back(std::string("bt.") + n,
                      manager.tree()->counters().Get(n));
  }
  if (wiring == db::Wiring::kClassic) {
    const blocklayer::BlockLayer* layer = manager.block_layer();
    rows.emplace_back("blk.submitted", layer->counters().Get("submitted"));
    rows.emplace_back("blk.completed", layer->counters().Get("completed"));
  } else {
    const blocklayer::DirectDriver* direct = manager.direct();
    rows.emplace_back("direct.submitted",
                      direct->counters().Get("submitted"));
    rows.emplace_back("direct.completed",
                      direct->counters().Get("completed"));
    const Counters& pcm = manager.pcm()->counters();
    for (const char* n : {"reads", "writes", "lines_written"}) {
      rows.emplace_back(std::string("pcm.") + n, pcm.Get(n));
    }
  }
  ExpectFinalRows(ts, rows);
  EXPECT_EQ(ts.FinalU64("db.txns"), 300u);
  EXPECT_EQ(ts.FinalU64("db.commit_lat_ns.count"),
            manager.commit_latency().count());

  EXPECT_EQ(Inventory(ts),
            wiring == db::Wiring::kClassic
                ? Want({kSsd, kDev, kFtl, kPageFtl, kBlk, kDb})
                : Want({kSsd, kDev, kFtl, kPageFtl, kDirect, kPcm, kDb}));
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, StorageInventoryTest,
    ::testing::Values(db::Wiring::kClassic, db::Wiring::kVision),
    [](const ::testing::TestParamInfo<db::Wiring>& i) {
      return std::string(db::WiringName(i.param));
    });

}  // namespace
}  // namespace postblock::metrics
