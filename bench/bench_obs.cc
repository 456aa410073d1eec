// Observability benchmark: obs::SloWatchdog determinism. A
// deterministic device workload runs twice with the watchdog attached
// to the sampler under an intentionally breached p99 bound; both runs
// must detect breaches (> 0) and produce bit-identical breach digests.
//
// Emits BENCH_obs.json with its gates.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

/// The watchdog's device: the small SSD at 10% over-provisioning.
ssd::Config WatchdogConfig() {
  ssd::Config config = ssd::Config::Small();
  config.over_provisioning = 0.10;
  return config;
}

struct WatchOut {
  std::uint64_t breaches = 0;
  std::uint64_t digest = 0;
  std::size_t unresolved = 0;
  std::uint64_t samples = 0;
};

WatchOut RunWatchdog() {
  sim::Simulator sim;
  metrics::MetricRegistry registry;
  ssd::Config config = WatchdogConfig();
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
  bench::Banner("obs", "SLO watchdog on the small device",
                "watchdog breach stream deterministic");

  // Run the breached-SLO workload twice.
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
    const ssd::Config config = WatchdogConfig();
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, &config);
    std::fprintf(f,
                 "  \"watchdog\": {\"breaches\": %llu, \"digest\": "
                 "\"%016llx\", \"digest_identical\": %s, "
                 "\"deterministic\": %s},\n",
                 static_cast<unsigned long long>(w1.breaches),
                 static_cast<unsigned long long>(w1.digest),
                 w1.digest == w2.digest ? "true" : "false",
                 watchdog_ok ? "true" : "false");
    const std::vector<bench::Gate> gates = {
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

  if (!watchdog_ok) return 1;
  std::printf("shape check: watchdog deterministic.\n");
  return 0;
}
