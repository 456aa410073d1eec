#ifndef POSTBLOCK_BENCH_BENCH_UTIL_H_
#define POSTBLOCK_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/json.h"
#include "common/table.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "sim/sharded_engine.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/sharded_device.h"
#include "workload/patterns.h"

namespace postblock::bench {

/// Short git SHA of the working tree, or "unknown" when git (or the
/// repo) is unavailable — BENCH_*.json files carry it so a result can
/// be matched to the code that produced it.
inline std::string GitShaShort() {
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null",
                             "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Writes the shared `"meta"` object (followed by a comma) into an open
/// BENCH_*.json: git SHA, the worker-thread count the run used (0 =
/// single-threaded reference path) and the machine's hardware
/// concurrency — so a scaling number can never be read without knowing
/// how many cores produced it — plus the device shape when a config is
/// given and, when >= 0, the tenant/queue topology the run exercised.
inline void WriteJsonMeta(std::FILE* f,
                          const ssd::Config* config = nullptr,
                          std::uint32_t workers = 0,
                          std::int64_t tenants = -1,
                          std::int64_t queues = -1) {
  char buf[256];
  // The SHA comes from a subprocess; escape it like any other
  // externally-sourced string so a weird git setup can't emit invalid
  // JSON into every BENCH_*.json on the machine.
  std::string out = "\"git_sha\": \"" + JsonEscaped(GitShaShort()) + "\"";
  std::snprintf(buf, sizeof(buf),
                ", \"workers\": %u, \"hardware_concurrency\": %u", workers,
                std::thread::hardware_concurrency());
  out += buf;
  if (config != nullptr) {
    std::snprintf(buf, sizeof(buf), ", \"channels\": %u, \"chips\": %u",
                  config->geometry.channels, config->geometry.luns());
    out += buf;
  }
  if (tenants >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"tenants\": %lld",
                  static_cast<long long>(tenants));
    out += buf;
  }
  if (queues >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"queues\": %lld",
                  static_cast<long long>(queues));
    out += buf;
  }
  std::fprintf(f, "  \"meta\": {%s},\n", out.c_str());
}

/// Prints the experiment banner: which paper artifact this regenerates
/// and what shape the paper claims.
inline void Banner(const std::string& id, const std::string& artifact,
                   const std::string& claim) {
  std::printf("\n=== %s — %s ===\n", id.c_str(), artifact.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

inline void Section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// Issues `ops` single-page writes from `pattern` and runs to idle —
/// used to precondition (age) a device so GC has history to fight.
inline void Precondition(sim::Simulator* sim,
                         blocklayer::BlockDevice* device,
                         workload::Pattern* pattern, std::uint64_t ops,
                         std::uint32_t queue_depth = 8) {
  (void)workload::RunClosedLoop(sim, device, pattern, ops, queue_depth);
  sim->Run();  // drain background GC
}

/// Sequentially fills the first `blocks` LBAs (valid data everywhere).
inline void FillSequential(sim::Simulator* sim,
                           blocklayer::BlockDevice* device,
                           std::uint64_t blocks) {
  workload::SequentialPattern fill(0, blocks, /*is_write=*/true);
  Precondition(sim, device, &fill, blocks);
}

/// The fig2 device (E2): a 2012 consumer SSD with 10% over-provisioning.
inline ssd::Config Fig2Config() {
  ssd::Config c = ssd::Config::Consumer2012();
  c.over_provisioning = 0.10;
  return c;
}

/// Fills the whole device sequentially and, when `aged`, overwrites
/// twice its capacity at random so GC has history to fight.
inline void Fig2Age(sim::Simulator* sim, blocklayer::BlockDevice* device,
                    bool aged = true) {
  const std::uint64_t n = device->num_blocks();
  FillSequential(sim, device, n);
  if (aged) {
    workload::RandomPattern churn(0, n, /*is_write=*/true, 1, 99);
    Precondition(sim, device, &churn, 2 * n);
  }
}

/// The fig2 measurement: 20000 random reads at QD 4, against a QD 2
/// random-write stream when `concurrent_writes` (on an aged device the
/// stream keeps GC live), then runs to idle. Returns the reads.
inline workload::RunResult Fig2Reads(sim::Simulator* sim,
                                     blocklayer::BlockDevice* device,
                                     bool concurrent_writes = true) {
  // Each write's completion issues the next until the reads are done.
  struct WriteStream {
    blocklayer::BlockDevice* device;
    workload::RandomPattern pattern;
    bool stopped = false;

    void Issue() {
      if (stopped) return;
      blocklayer::IoRequest w;
      w.op = blocklayer::IoOp::kWrite;
      w.lba = pattern.Next().lba;
      w.nblocks = 1;
      w.tokens = {1};
      w.on_complete = [this](const blocklayer::IoResult&) { Issue(); };
      device->Submit(std::move(w));
    }
  } writes{device, {0, device->num_blocks(), /*is_write=*/true, 1, 7}};
  if (concurrent_writes) {
    writes.Issue();
    writes.Issue();
  }
  workload::RandomPattern reads(0, device->num_blocks(), false, 1, 8);
  workload::RunResult out =
      workload::RunClosedLoop(sim, device, &reads, 20000, 4);
  writes.stopped = true;
  sim->Run();  // drains the in-flight writes before the stream goes
  return out;
}

/// The sharded-device workload (E21): the full ssd::Device on the
/// sharded engine, one shard per channel (4 channels x 4 LUNs) plus the
/// controller shard, sequentially aged to 70%, then `ios` IOs of a
/// 40%-write random mix at QD 32. bench_sharded_device measures it at
/// every worker count.
inline ssd::Config ShardedDeviceConfig() {
  ssd::Config config;
  config.geometry.channels = 4;
  config.geometry.luns_per_channel = 4;
  config.geometry.planes_per_lun = 1;
  config.geometry.blocks_per_plane = 64;
  config.geometry.pages_per_block = 32;
  config.geometry.page_size_bytes = 4096;
  return config;
}

inline ssd::ShardedDeviceRun ShardedDeviceWorkload(std::uint32_t workers,
                                                   std::uint64_t ios) {
  ssd::ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 32;
  run.total_ios = ios;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.seed = 0xdead5eed;
  return run;
}

/// One wall-clocked run of the sharded-device workload.
struct ShardedDeviceRow {
  std::uint32_t workers = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  double seconds = 0;
  std::uint64_t fingerprint = 0;  // CombinedFingerprint()
  SimTime sim_end_ns = 0;
  double wa = 0;

  double eps() const { return seconds > 0 ? events / seconds : 0; }
};

inline ShardedDeviceRow RunShardedDevice(std::uint32_t workers,
                                         std::uint64_t ios) {
  ssd::ShardedDeviceSim sim(ShardedDeviceConfig(),
                            ShardedDeviceWorkload(workers, ios));
  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = sim.Run();
  const auto t1 = std::chrono::steady_clock::now();

  ShardedDeviceRow row;
  row.workers = workers;
  row.events = sim.engine()->events_executed();
  row.messages = sim.engine()->messages_delivered();
  row.rounds = sim.engine()->rounds();
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.fingerprint = sim.CombinedFingerprint();
  row.sim_end_ns = end;
  row.wa = sim.device()->WriteAmplification();
  return row;
}

// --- Gates ---------------------------------------------------------------
//
// Every gated bench judges itself: it ends its BENCH_*.json with a
// "gates" array (GatesJson) and scripts/check_perf.sh only prints the
// verdicts. A gate is named "<bench>.<check>"; its bound is a named
// constant beside the measurement that feeds it.

/// Which side of its bound an observation must fall on.
enum class Bound { kAtMost, kBelow, kAtLeast, kAbove };

enum class Verdict { kPass, kFail, kUnresolved, kSkipped };

inline const char* BoundOp(Bound b) {
  static constexpr const char* kOps[] = {"<=", "<", ">=", ">"};
  return kOps[static_cast<int>(b)];
}

inline const char* VerdictName(Verdict v) {
  static constexpr const char* kNames[] = {"PASS", "FAIL", "UNRESOLVED",
                                           "SKIPPED"};
  return kNames[static_cast<int>(v)];
}

/// The one verdict rule. FAIL when `observed` misses `bound` by more
/// than `noise_floor` (a non-finite observation always fails);
/// UNRESOLVED when the floor is wider than the bound, so the
/// measurement cannot tell a pass from noise; PASS otherwise. Exact
/// gates (sim-time observables, counts) have floor 0 and so only PASS
/// or FAIL.
inline Verdict Judge(double observed, Bound direction, double bound,
                     double noise_floor) {
  if (!std::isfinite(observed)) return Verdict::kFail;
  bool misses = false;
  switch (direction) {
    case Bound::kAtMost:
      misses = observed - noise_floor > bound;
      break;
    case Bound::kBelow:
      misses = observed - noise_floor >= bound;
      break;
    case Bound::kAtLeast:
      misses = observed + noise_floor < bound;
      break;
    case Bound::kAbove:
      misses = observed + noise_floor <= bound;
      break;
  }
  if (misses) return Verdict::kFail;
  return noise_floor > bound ? Verdict::kUnresolved : Verdict::kPass;
}

struct Gate {
  std::string name;
  double observed = 0;
  Bound direction = Bound::kAtMost;
  double bound = 0;
  /// Measurement noise in the gate's own units; 0 for exact gates.
  double noise_floor = 0;
  Verdict verdict = Verdict::kFail;
};

inline Gate MakeGate(std::string name, double observed, Bound direction,
                     double bound, double noise_floor = 0) {
  const Verdict v = Judge(observed, direction, bound, noise_floor);
  return Gate{std::move(name), observed, direction, bound, noise_floor, v};
}

/// A yes/no check (schedule identical, digests equal): observed 1 or 0.
inline Gate CheckGate(std::string name, bool ok) {
  return MakeGate(std::move(name), ok ? 1 : 0, Bound::kAtLeast, 1);
}

// Wall-clock gates all follow one rule: at least kWallClockReps
// interleaved reps in rotating order; the observation is the median
// per-rep ratio, and the noise floor is the interquartile range of the
// same process's A/A ratios (an arm against a second copy of itself).
// uFLIP's advice: report the spread, not the best case.
inline constexpr int kWallClockReps = 10;

/// Runs arm 0..arms-1 once per rep for `reps` reps, rotating which arm
/// goes first so none always pays warm-up or frequency drift, and
/// returns seconds[arm][rep] as reported by `run_arm(arm)`.
template <typename RunArm>
std::vector<std::vector<double>> InterleavedReps(int arms, int reps,
                                                 RunArm&& run_arm) {
  std::vector<std::vector<double>> seconds(arms, std::vector<double>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < arms; ++i) {
      const int arm = (i + rep) % arms;
      seconds[arm][rep] = run_arm(arm);
    }
  }
  return seconds;
}

/// Per-rep ratios num[rep] / den[rep].
inline std::vector<double> Ratios(const std::vector<double>& num,
                                  const std::vector<double>& den) {
  std::vector<double> out(num.size());
  for (std::size_t i = 0; i < num.size(); ++i) out[i] = num[i] / den[i];
  return out;
}

/// Linearly interpolated quantile `q` in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) {
  return Quantile(v, 0.5);
}

inline double Iqr(const std::vector<double>& v) {
  return Quantile(v, 0.75) - Quantile(v, 0.25);
}

/// The wall-clock cost of an attachment: observed = median(attached /
/// bare) - 1 against an upper bound on that fraction; floor = the A/A
/// IQR.
inline Gate OverheadGate(std::string name, const std::vector<double>& ratios,
                         const std::vector<double>& aa_ratios,
                         double max_overhead) {
  return MakeGate(std::move(name), Median(ratios) - 1.0, Bound::kAtMost,
                  max_overhead, Iqr(aa_ratios));
}

/// A speed-up (baseline seconds / candidate seconds per rep) against a
/// lower bound; the A/A IQR is relative, so the floor is scaled to the
/// bound's units.
inline Gate SpeedupGate(std::string name, const std::vector<double>& ratios,
                        const std::vector<double>& aa_ratios,
                        double min_speedup) {
  return MakeGate(std::move(name), Median(ratios), Bound::kAtLeast,
                  min_speedup, Iqr(aa_ratios) * min_speedup);
}

/// A speed-up from running `workers` worker threads. A host with fewer
/// hardware threads cannot show one, so there the gate is SKIPPED (its
/// observation is still reported).
inline Gate WorkerSpeedupGate(std::string name,
                              const std::vector<double>& ratios,
                              const std::vector<double>& aa_ratios,
                              double min_speedup, unsigned workers,
                              unsigned hardware_threads) {
  Gate g = SpeedupGate(std::move(name), ratios, aa_ratios, min_speedup);
  if (hardware_threads < workers) g.verdict = Verdict::kSkipped;
  return g;
}

/// The `"gates"` member that ends every gated BENCH_*.json (no trailing
/// comma): one object per gate. A non-finite number is written as null.
inline std::string GatesJson(const std::vector<Gate>& gates) {
  const auto num = [](double x) {
    if (!std::isfinite(x)) return std::string("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", x);
    return std::string(buf);
  };
  std::string out = "  \"gates\": [";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + JsonEscaped(g.name) +
           "\", \"observed\": " + num(g.observed) + ", \"op\": \"" +
           BoundOp(g.direction) + "\", \"bound\": " + num(g.bound) +
           ", \"noise_floor\": " + num(g.noise_floor) +
           ", \"verdict\": \"" + VerdictName(g.verdict) + "\"}";
  }
  out += "\n  ]\n";
  return out;
}

}  // namespace postblock::bench

#endif  // POSTBLOCK_BENCH_BENCH_UTIL_H_
