// bench_sharded_device — the full ssd::Device on the sharded engine.
//
// Runs a closed-loop aged-device workload (sequential precondition,
// then a 40%-write random mix at QD 32, GC relocations crossing the
// controller/channel seam) through the real controller/FTL/channel
// stack on one shard per flash channel plus a controller shard, at
// workers = 0 (sequential reference), 1, 2 and 4. Reports events/sec,
// speedup, and the determinism bit: every worker count must produce a
// combined fingerprint (model observables + committed schedule)
// byte-identical to the sequential reference.
//
// The 4-worker speed-up follows bench_util.h's wall-clock rule:
// interleaved reps of workers = 0, workers = 0 again (the A/A arm) and
// workers = 4. Emits BENCH_sharded_device.json (with its gates: the
// determinism bit, GC activity, and the >= 1.5x 4-worker floor, SKIPPED
// on a host with fewer than 4 hardware threads; the meta stamp records
// both counts).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ssd/config.h"

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

  // Every row must commit the sequential reference's schedule.
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

  const double speedup_4w = bench::Median(speedups);
  std::printf("\ndeterminism: %s\n",
              determinism_ok ? "all worker counts byte-identical"
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
  const Config config = bench::ShardedDeviceConfig();
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
  return determinism_ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::ssd

int main() { return postblock::ssd::Main(); }
