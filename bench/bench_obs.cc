// Observability-overhead benchmark: what do the src/obs instruments
// cost, and do they stay schedule-neutral?
//
// Part A — obs::EngineProfiler on the sharded engine. The
// sharded-device workload (E21: the full ssd::Device, aged, on one
// shard per channel plus the controller shard) runs detached, detached
// again (the A/A arm) and with the profiler attached, in interleaved
// reps under bench_util.h's wall-clock rule, at workers = 0 (the
// sequential reference — wall-clock-stable on any machine). The
// attached run must cost <= 2% and its committed schedule fingerprint
// must be byte-identical to detached; an extra attached run at
// workers = 2 must also match (the observer may not perturb the
// parallel schedule either). This row stays here rather than in
// bench_neutrality because it observes the sharded engine, which the
// fig2 workload does not run.
//
// Part B — obs::SloWatchdog determinism. A deterministic device
// workload runs twice with the watchdog attached to the sampler under
// an intentionally breached p99 bound; both runs must detect breaches
// (> 0) and produce bit-identical breach digests.
//
// Emits BENCH_obs.json with its gates.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/engine_profiler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/sharded_device.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

// --- Part B: watchdog determinism -----------------------------------------

struct WatchOut {
  std::uint64_t breaches = 0;
  std::uint64_t digest = 0;
  std::size_t unresolved = 0;
  std::uint64_t samples = 0;
};

WatchOut RunWatchdog() {
  sim::Simulator sim;
  metrics::MetricRegistry registry;
  ssd::Config config = ssd::Config::Small();
  config.over_provisioning = 0.10;
  config.metrics = &registry;
  ssd::Device device(&sim, config);
  const std::uint64_t n = device.num_blocks();
  bench::FillSequential(&sim, &device, n);

  // The 1ns p99 bound and the absurd throughput floor are breached by
  // construction: the bench verifies the watchdog *fires*, and fires
  // the same way twice. The third spec names a metric that does not
  // exist — the unresolved path must be stable too.
  obs::SloWatchdog watchdog(std::vector<obs::SloSpec>{
      {"read p99 <= 1ns (intentional breach)", "dev.read_lat_ns",
       obs::SloKind::kMaxP99, 1.0, /*min_window_count=*/1},
      {"completions >= 1e12/s (intentional breach)", "dev.completions",
       obs::SloKind::kMinThroughput, 1e12},
      {"missing metric (stays unresolved)", "no.such.metric",
       obs::SloKind::kMaxGauge, 1.0},
  });
  metrics::Sampler sampler(&sim, &registry, 1'000'000);
  sampler.set_observer(&watchdog);
  sampler.Start();

  workload::RandomPattern reads(0, n, /*is_write=*/false, 1, 8);
  (void)workload::RunClosedLoop(&sim, &device, &reads, 5000, 4);
  sim.Run();
  sampler.Stop();

  WatchOut out;
  out.breaches = watchdog.total_breaches();
  out.digest = watchdog.Digest();
  out.unresolved = watchdog.unresolved_specs();
  out.samples = sampler.samples_taken();
  return out;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner("obs",
                "observability cost over the sharded device",
                "profiler attached <= 2% wall clock and schedule "
                "byte-identical; watchdog breach stream deterministic");

  constexpr std::uint64_t kIos = 60'000;
  constexpr double kMaxProfilerOverhead = 0.02;

  // Part A: detached, detached again (A/A) and attached, interleaved.
  bench::ShardedDeviceRow last[3];
  obs::EngineProfiler profiler;
  const auto seconds = bench::InterleavedReps(
      3, bench::kWallClockReps, [&](int arm) {
        if (arm == 2) profiler.Reset();
        last[arm] = bench::RunShardedDevice(/*workers=*/0, kIos,
                                            arm == 2 ? &profiler : nullptr);
        return last[arm].seconds;
      });
  const std::vector<double> ratios = bench::Ratios(seconds[2], seconds[0]);
  const std::vector<double> aa = bench::Ratios(seconds[1], seconds[0]);
  const double overhead = bench::Median(ratios) - 1.0;
  const double detached_s = bench::Median(seconds[0]);
  const double attached_s = bench::Median(seconds[2]);

  // Neutrality: attached fingerprints (sequential and parallel) must
  // equal the detached sequential reference.
  obs::EngineProfiler par_profiler;
  const bench::ShardedDeviceRow par =
      bench::RunShardedDevice(/*workers=*/2, kIos, &par_profiler);
  const bool neutral = last[2].fingerprint == last[0].fingerprint &&
                       last[2].events == last[0].events &&
                       par.fingerprint == last[0].fingerprint &&
                       par.events == last[0].events;

  Table table({"mode", "median wall s", "overhead", "events",
               "fingerprint"});
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(last[0].fingerprint));
  table.AddRow({"detached", Table::Num(detached_s, 3), "0.00%",
                Table::Int(last[0].events), fp});
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(last[2].fingerprint));
  table.AddRow({"attached", Table::Num(attached_s, 3),
                Table::Num(overhead * 100.0, 2) + "%",
                Table::Int(last[2].events), fp});
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(par.fingerprint));
  table.AddRow({"attached w=2", Table::Num(par.seconds, 3), "-",
                Table::Int(par.events), fp});
  table.Print();
  std::printf("profiler: %llu windows observed, %llu seam messages, "
              "slack p99 %llu ns; neutrality: %s\n",
              static_cast<unsigned long long>(profiler.windows_observed()),
              static_cast<unsigned long long>(profiler.messages()),
              static_cast<unsigned long long>(profiler.slack_hist().P99()),
              neutral ? "schedule byte-identical" : "VIOLATED");

  // Part B: run the breached-SLO workload twice.
  const WatchOut w1 = RunWatchdog();
  const WatchOut w2 = RunWatchdog();
  const bool watchdog_ok = w1.breaches > 0 && w1.breaches == w2.breaches &&
                           w1.digest == w2.digest && w1.unresolved == 1;
  std::printf(
      "watchdog: %llu breaches over %llu samples (run 2: %llu), digest "
      "%016llx vs %016llx, %zu unresolved spec — %s\n",
      static_cast<unsigned long long>(w1.breaches),
      static_cast<unsigned long long>(w1.samples),
      static_cast<unsigned long long>(w2.breaches),
      static_cast<unsigned long long>(w1.digest),
      static_cast<unsigned long long>(w2.digest), w1.unresolved,
      watchdog_ok ? "deterministic" : "VIOLATION");

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f != nullptr) {
    const ssd::Config config = bench::ShardedDeviceConfig();
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, &config);
    std::fprintf(f,
                 "  \"profiler\": {\"detached_seconds\": %.4f, "
                 "\"attached_seconds\": %.4f, \"overhead\": %.4f, "
                 "\"neutral\": %s, \"windows\": %llu, \"events\": %llu},\n",
                 detached_s, attached_s, overhead,
                 neutral ? "true" : "false",
                 static_cast<unsigned long long>(
                     profiler.windows_observed()),
                 static_cast<unsigned long long>(last[2].events));
    std::fprintf(f,
                 "  \"watchdog\": {\"breaches\": %llu, \"digest\": "
                 "\"%016llx\", \"digest_identical\": %s, "
                 "\"deterministic\": %s},\n",
                 static_cast<unsigned long long>(w1.breaches),
                 static_cast<unsigned long long>(w1.digest),
                 w1.digest == w2.digest ? "true" : "false",
                 watchdog_ok ? "true" : "false");
    const std::vector<bench::Gate> gates = {
        bench::OverheadGate("obs.profiler.overhead", ratios, aa,
                            kMaxProfilerOverhead),
        bench::CheckGate("obs.profiler.neutral", neutral),
        bench::MakeGate("obs.watchdog.breaches",
                        static_cast<double>(w1.breaches),
                        bench::Bound::kAbove, 0),
        bench::CheckGate("obs.watchdog.deterministic", watchdog_ok),
    };
    std::fputs(bench::GatesJson(gates).c_str(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_obs.json\n");
  }

  if (!neutral || !watchdog_ok) return 1;
  std::printf(
      "shape check: attached profiler overhead %.2f%% (gate: <= 2%%), "
      "schedule identical on/off, watchdog deterministic.\n",
      overhead * 100.0);
  return 0;
}
