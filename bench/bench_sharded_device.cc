// bench_sharded_device — the full ssd::Device on the sharded engine.
//
// Runs a closed-loop aged-device workload (sequential precondition,
// then a 40%-write random mix at QD 32, GC relocations crossing the
// controller/channel seam) through the real controller/FTL/channel
// stack on one shard per flash channel plus a controller shard, at
// workers = 0 (sequential reference), 1, 2 and 4. Reports events/sec,
// speedup, and the determinism bit: every worker count must produce a
// combined fingerprint (model observables + committed schedule)
// byte-identical to the sequential reference. A last run at 4 workers
// attaches obs::EngineProfiler: its fingerprint joins the determinism
// bit (observing may not move the schedule), and its per-shard
// busy/idle/barrier table and lookahead-slack histogram say where the
// wall time went.
//
// The 4-worker speed-up follows bench_util.h's wall-clock rule:
// interleaved reps of workers = 0, workers = 0 again (the A/A arm) and
// workers = 4. Emits BENCH_sharded_device.json (with its gates: the
// determinism bit, GC activity, and the >= 1.5x 4-worker floor, SKIPPED
// on a host with fewer than 4 hardware threads; the meta stamp records
// both counts) and BENCH_sharded_device.profile.json.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/engine_profiler.h"
#include "ssd/config.h"
#include "ssd/sharded_device.h"

namespace postblock::ssd {
namespace {

using Row = bench::ShardedDeviceRow;
using bench::RunShardedDevice;

int Main() {
  constexpr std::uint64_t kIos = 120'000;
  const std::uint32_t hw = std::thread::hardware_concurrency();

  std::printf("bench_sharded_device: full ssd::Device on the sharded "
              "engine\n");
  std::printf("  4 channels + controller shard, %" PRIu64
              " IOs at QD 32 (40%% writes, aged 70%%), "
              "hardware_concurrency=%u\n\n",
              kIos, hw);

  const auto print_row = [](const Row& row) {
    std::printf("  workers=%u: %8.2fM ev/s  (%" PRIu64 " events, %" PRIu64
                " seam msgs, %" PRIu64 " rounds, WA %.2f, %.3fs)\n",
                row.workers, row.eps() / 1e6, row.events, row.messages,
                row.rounds, row.wa, row.seconds);
  };
  // workers = 0 and 4 feed the speed-up gate: interleaved reps with an
  // A/A arm. The other counts are one warmed-up run each.
  constexpr std::uint32_t kGatedWorkers = 4;
  constexpr double kMinSpeedup4w = 1.5;
  const std::uint32_t arm_workers[] = {0, 0, kGatedWorkers};
  Row arm_rows[3];
  for (const std::uint32_t w : {0u, kGatedWorkers}) {
    RunShardedDevice(w, kIos / 10);  // warm-up
  }
  const auto seconds = bench::InterleavedReps(
      3, bench::kWallClockReps, [&](int arm) {
        arm_rows[arm] = RunShardedDevice(arm_workers[arm], kIos);
        return arm_rows[arm].seconds;
      });
  arm_rows[0].seconds = bench::Median(seconds[0]);
  arm_rows[2].seconds = bench::Median(seconds[2]);
  const std::vector<double> speedups = bench::Ratios(seconds[0], seconds[2]);
  const std::vector<double> aa = bench::Ratios(seconds[1], seconds[0]);

  std::vector<Row> rows = {arm_rows[0]};
  for (const std::uint32_t w : {1u, 2u}) {
    // Warm-up at a fraction of the size, then the measured run.
    RunShardedDevice(w, kIos / 10);
    rows.push_back(RunShardedDevice(w, kIos));
  }
  rows.push_back(arm_rows[2]);
  for (const Row& r : rows) print_row(r);

  // Profiled run: the profiler attached (default window sampling) at
  // the gated worker count, then the per-shard wall attribution.
  obs::EngineProfiler profiler;
  const Row profiled = RunShardedDevice(kGatedWorkers, kIos, &profiler);
  std::printf("\nprofiled run (obs::EngineProfiler attached):\n");
  print_row(profiled);
  const Config config = bench::ShardedDeviceConfig();
  const ShardPlan plan = ShardPlan::FromConfig(config);
  for (std::size_t s = 0; s < profiler.shard_profiles().size(); ++s) {
    const obs::ShardProfile& p = profiler.shard_profiles()[s];
    std::printf("  shard %zu (%-10s): util %5.1f%%  busy %7.1fms  idle "
                "%7.1fms  barrier %7.1fms  %" PRIu64 " events\n",
                s, s == plan.controller_shard ? "controller" : "channel",
                p.Utilization() * 100, p.busy_wall_ns / 1e6,
                p.idle_wall_ns / 1e6, p.barrier_wall_ns / 1e6, p.events);
  }
  const Histogram& slack = profiler.slack_hist();
  std::printf("  lookahead slack: p50=%" PRIu64 "ns p99=%" PRIu64
              "ns max=%" PRIu64 "ns over %" PRIu64 " shard-windows\n",
              slack.P50(), slack.P99(), slack.max(), slack.count());

  // Every row, the profiled one included, must commit the sequential
  // reference's schedule.
  const Row& seq = rows[0];
  bool determinism_ok = true;
  const auto check = [&](const Row& r) {
    if (r.fingerprint != seq.fingerprint || r.events != seq.events) {
      std::printf("DETERMINISM MISMATCH at workers=%u: fingerprint "
                  "%016" PRIx64 " vs reference %016" PRIx64 "\n",
                  r.workers, r.fingerprint, seq.fingerprint);
      determinism_ok = false;
    }
  };
  for (const Row& r : rows) check(r);
  check(arm_rows[1]);
  check(profiled);

  const double speedup_4w = bench::Median(speedups);
  std::printf("\ndeterminism: %s\n",
              determinism_ok
                  ? "all worker counts byte-identical, profiled run included"
                  : "MISMATCH");
  std::printf("speedup at 4 workers vs sequential: %.2fx%s\n", speedup_4w,
              hw < 4 ? "  (machine has <4 hardware threads; floor not "
                       "meaningful here)"
                     : "");

  std::FILE* f = std::fopen("BENCH_sharded_device.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sharded_device.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteJsonMeta(f, &config, /*workers=*/4);
  for (const Row& r : rows) {
    std::fprintf(f,
                 "  \"workers%u\": {\"events\": %" PRIu64
                 ", \"eps\": %.0f, \"seconds\": %.6f, \"seam_messages\": "
                 "%" PRIu64 ", \"rounds\": %" PRIu64
                 ", \"write_amplification\": %.4f, \"fingerprint\": "
                 "\"%016" PRIx64 "\", \"sim_end_ns\": %" PRIu64 "},\n",
                 r.workers, r.events, r.eps(), r.seconds, r.messages,
                 r.rounds, r.wa, r.fingerprint,
                 static_cast<std::uint64_t>(r.sim_end_ns));
  }
  std::fprintf(f,
               "  \"profiler\": {\"workers\": %u, \"fingerprint\": "
               "\"%016" PRIx64 "\", \"windows\": %" PRIu64
               ", \"shards\": [\n",
               profiled.workers, profiled.fingerprint,
               profiler.windows_observed());
  for (std::size_t s = 0; s < profiler.shard_profiles().size(); ++s) {
    const obs::ShardProfile& p = profiler.shard_profiles()[s];
    std::fprintf(f,
                 "    {\"shard\": %zu, \"utilization\": %.4f, "
                 "\"busy_ns\": %" PRIu64 ", \"idle_ns\": %" PRIu64
                 ", \"barrier_ns\": %" PRIu64 ", \"events\": %" PRIu64
                 "}%s\n",
                 s, p.Utilization(), p.busy_wall_ns, p.idle_wall_ns,
                 p.barrier_wall_ns, p.events,
                 s + 1 < profiler.shard_profiles().size() ? "," : "");
  }
  std::fprintf(f,
               "  ], \"lookahead_slack_ns\": {\"count\": %" PRIu64
               ", \"p50\": %" PRIu64 ", \"p99\": %" PRIu64
               ", \"max\": %" PRIu64 "}},\n",
               slack.count(), slack.P50(), slack.P99(), slack.max());
  std::fprintf(f, "  \"determinism_ok\": %s,\n",
               determinism_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_4w\": %.3f,\n", speedup_4w);
  const std::vector<bench::Gate> gates = {
      bench::CheckGate("sharded_device.determinism", determinism_ok),
      // Real GC must run, or relocation traffic never crossed the seam
      // and the determinism bit proves less than it claims.
      bench::MakeGate("sharded_device.write_amplification", seq.wa,
                      bench::Bound::kAbove, 1.0),
      bench::WorkerSpeedupGate("sharded_device.speedup_4w", speedups, aa,
                               kMinSpeedup4w, kGatedWorkers, hw),
  };
  std::fputs(bench::GatesJson(gates).c_str(), f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sharded_device.json\n");

  // The full git-SHA-stamped profile report rides alongside.
  if (profiler
          .WriteReport("BENCH_sharded_device.profile.json",
                       bench::MetaJsonFields(&config, kGatedWorkers))
          .ok()) {
    std::printf("wrote BENCH_sharded_device.profile.json\n");
  }
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
