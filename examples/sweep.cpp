// Parameter sweep on the multi-instance harness: N independent
// simulated SSDs run on N threads (sim::ParallelRunner), one per
// over-provisioning point, and the per-run metrics land in a single
// sweep report. Every instance is a full postblock stack confined to
// its worker thread, so the aggregated numbers are bitwise identical
// to running the points one after another.
//
//   $ ./sweep [threads] [ops_per_point] [report-path]
//   sweep report -> sweep_report.json
//
// EXPERIMENTS.md E18 is the recipe. This is Tier B parallelism, whole
// runs as the unit; E21 (bench_sharded_device) is Tier A, one run
// sharded across the controller/channel seam.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "sim/parallel_runner.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "workload/patterns.h"

using namespace postblock;

namespace {

/// One sweep point: age a Small-geometry SSD with random writes at the
/// given over-provisioning ratio and report steady-ish state metrics.
sim::SweepResult RunPoint(double op_fraction, std::uint64_t ops) {
  sim::Simulator simulator;
  ssd::Config config = ssd::Config::Small();
  config.over_provisioning = op_fraction;
  ssd::Device device(&simulator, config);

  // Precondition: fill the whole logical space once so GC is live and
  // the over-provisioning point actually matters.
  workload::SequentialPattern fill(0, device.num_blocks(),
                                   /*is_write=*/true);
  workload::RunClosedLoop(&simulator, &device, &fill, device.num_blocks(),
                          /*queue_depth=*/8);

  workload::RandomPattern pattern(0, device.num_blocks(),
                                  /*is_write=*/true, /*nblocks=*/1,
                                  /*seed=*/91);
  const workload::RunResult run = workload::RunClosedLoop(
      &simulator, &device, &pattern, ops, /*queue_depth=*/8);

  sim::SweepResult result;
  result.metrics.emplace_back("overprovision", op_fraction);
  result.metrics.emplace_back("iops", run.Iops());
  result.metrics.emplace_back("p50_us",
                              static_cast<double>(run.latency.P50()) / 1e3);
  result.metrics.emplace_back("p99_us",
                              static_cast<double>(run.latency.P99()) / 1e3);
  result.metrics.emplace_back("write_amplification",
                              device.WriteAmplification());
  result.metrics.emplace_back("sim_ns",
                              static_cast<double>(simulator.Now()));
  result.note = "random-write, qd8";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t threads =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1]))
               : std::thread::hardware_concurrency();
  const std::uint64_t ops =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 4000;
  // Overridable so concurrent invocations (CI matrix, side-by-side
  // comparisons) don't clobber one another's report.
  const std::string report = argc > 3 ? argv[3] : "sweep_report.json";

  const std::vector<double> points = {0.07, 0.125, 0.20, 0.28, 0.40};
  std::vector<sim::SweepJob> jobs;
  for (const double op : points) {
    char name[32];
    std::snprintf(name, sizeof name, "op%.3f", op);
    jobs.push_back(sim::SweepJob{
        name, [op, ops] { return RunPoint(op, ops); }});
  }

  std::printf("sweep: %zu points on %u threads, %llu ops each\n",
              jobs.size(), threads,
              static_cast<unsigned long long>(ops));
  sim::ParallelRunner runner(threads);
  const std::vector<sim::SweepResult> results = runner.RunAll(jobs);

  std::printf("%-10s %10s %10s %10s %8s\n", "point", "iops", "p50_us",
              "p99_us", "wa");
  for (const sim::SweepResult& r : results) {
    if (!r.ok) {
      std::printf("%-10s FAILED: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-10s %10.0f %10.1f %10.1f %8.2f\n", r.name.c_str(),
                r.metrics[1].second, r.metrics[2].second,
                r.metrics[3].second, r.metrics[4].second);
  }

  // Topology stamp (self-describing artifacts): each sweep point is a
  // single-tenant, single-queue stack at queue depth 8.
  const std::string meta =
      "\"threads\": " + std::to_string(threads) +
      ", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"ops_per_point\": " + std::to_string(ops) +
      ", \"tenants\": 1, \"queues\": 1, \"queue_depth\": 8";
  const std::string json =
      sim::ParallelRunner::SweepReportJson(results, meta);
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("sweep report -> %s\n", report.c_str());
  }
  return 0;
}
