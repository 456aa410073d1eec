// Tier B sweep harness (sim::ParallelRunner): N independent full
// stacks on N threads must equal N sequential runs bit for bit, keep
// results in job order, and isolate per-job failures. (Tier A, the
// sharded engine, is held to worker-count invariance by
// sharded_sim_test and sharded_device_test.)

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel_runner.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

/// A real full-stack job: builds its own Simulator + ssd::Device, runs
/// a small random-write burn-in, reports latency/WA. A pure function
/// of (seed) — the harness must reproduce it bit-for-bit on any
/// thread.
sim::SweepResult DeviceJob(std::uint64_t seed) {
  sim::Simulator simulator;
  ssd::Config config = ssd::Config::Small();
  config.seed = seed;
  ssd::Device device(&simulator, config);
  const std::uint64_t blocks = device.num_blocks();
  workload::RandomPattern pattern(0, blocks, /*is_write=*/true, 1,
                                  static_cast<std::uint32_t>(seed));
  const workload::RunResult run = workload::RunClosedLoop(
      &simulator, &device, &pattern, /*ops=*/300, /*queue_depth=*/4);
  simulator.Run();

  sim::SweepResult result;
  result.metrics.emplace_back("p50_ns",
                              static_cast<double>(run.latency.P50()));
  result.metrics.emplace_back("p99_ns",
                              static_cast<double>(run.latency.P99()));
  result.metrics.emplace_back("iops", run.Iops());
  result.metrics.emplace_back("wa", device.WriteAmplification());
  result.metrics.emplace_back("sim_end_ns",
                              static_cast<double>(simulator.Now()));
  return result;
}

std::vector<sim::SweepJob> DeviceJobs() {
  std::vector<sim::SweepJob> jobs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    jobs.push_back(sim::SweepJob{
        "seed" + std::to_string(seed),
        [seed] { return DeviceJob(seed); }});
  }
  return jobs;
}

TEST(ParallelRunnerTest, NInstancesEqualNSequentialRuns) {
  const std::vector<sim::SweepResult> sequential =
      sim::ParallelRunner(1).RunAll(DeviceJobs());
  const std::vector<sim::SweepResult> parallel =
      sim::ParallelRunner(4).RunAll(DeviceJobs());

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].name, sequential[i].name);
    EXPECT_TRUE(parallel[i].ok);
    ASSERT_EQ(parallel[i].metrics.size(), sequential[i].metrics.size());
    for (std::size_t m = 0; m < sequential[i].metrics.size(); ++m) {
      EXPECT_EQ(parallel[i].metrics[m].first,
                sequential[i].metrics[m].first);
      // Bitwise double equality: a worker thread must not change one
      // bit of an independent instance's result.
      EXPECT_EQ(parallel[i].metrics[m].second,
                sequential[i].metrics[m].second)
          << parallel[i].name << "." << parallel[i].metrics[m].first;
    }
  }
}

TEST(ParallelRunnerTest, ResultsStayInJobOrderAndErrorsAreIsolated) {
  std::vector<sim::SweepJob> jobs;
  jobs.push_back(sim::SweepJob{"ok1", [] {
    sim::SweepResult r;
    r.metrics.emplace_back("v", 1.0);
    return r;
  }});
  jobs.push_back(sim::SweepJob{"boom", []() -> sim::SweepResult {
    throw std::runtime_error("injected failure");
  }});
  jobs.push_back(sim::SweepJob{"ok2", [] {
    sim::SweepResult r;
    r.metrics.emplace_back("v", 2.0);
    return r;
  }});

  const auto results = sim::ParallelRunner(3).RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "ok1");
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[1].name, "boom");
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error, "injected failure");
  EXPECT_EQ(results[2].name, "ok2");
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[2].metrics[0].second, 2.0);
}

TEST(ParallelRunnerTest, SweepReportJsonShape) {
  sim::SweepResult r;
  r.name = "point\"a\"";
  r.metrics.emplace_back("iops", 1250.5);
  r.note = "aged";
  const std::string json = sim::ParallelRunner::SweepReportJson(
      {r}, "\"git_sha\": \"test\"");
  EXPECT_NE(json.find("\"meta\": {\"git_sha\": \"test\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"point\\\"a\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"iops\": 1250.5"), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"aged\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

}  // namespace
}  // namespace postblock
