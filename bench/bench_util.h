#ifndef POSTBLOCK_BENCH_BENCH_UTIL_H_
#define POSTBLOCK_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

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

/// Builds the shared meta fields string — git SHA, the worker-thread
/// count the run used (0 = single-threaded reference path) and the
/// machine's hardware concurrency — so a scaling number can never be
/// read without knowing how many cores produced it — plus the device
/// shape when a config is given and, when >= 0, the tenant/queue
/// topology the run exercised. The returned string is the *inside* of
/// a JSON object ("\"git_sha\": ..., ..."), ready to splice into
/// metrics::TimeSeries::WriteJson or obs::EngineProfiler::WriteReport
/// meta_fields, or to wrap in braces directly.
inline std::string MetaJsonFields(const ssd::Config* config = nullptr,
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
  return out;
}

/// Writes the shared `"meta"` object (followed by a comma) into an open
/// BENCH_*.json — MetaJsonFields wrapped for the common direct-write
/// case. Consumers (scripts/check_perf.sh) skip the "meta" key when
/// comparing runs.
inline void WriteJsonMeta(std::FILE* f,
                          const ssd::Config* config = nullptr,
                          std::uint32_t workers = 0,
                          std::int64_t tenants = -1,
                          std::int64_t queues = -1) {
  std::fprintf(f, "  \"meta\": {%s},\n",
               MetaJsonFields(config, workers, tenants, queues).c_str());
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

/// The gate-10 workload (E21): the full ssd::Device on the sharded
/// engine, one shard per channel (4 channels x 4 LUNs) plus the
/// controller shard, sequentially aged to 70%, then `ios` IOs of a
/// 40%-write random mix at QD 32. bench_sharded_device measures it at
/// every worker count; bench_obs prices profiling it.
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

inline ssd::ShardedDeviceRun ShardedDeviceWorkload(
    std::uint32_t workers, std::uint64_t ios,
    sim::EngineObserver* observer = nullptr) {
  ssd::ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 32;
  run.total_ios = ios;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.seed = 0xdead5eed;
  run.observer = observer;
  return run;
}

}  // namespace postblock::bench

#endif  // POSTBLOCK_BENCH_BENCH_UTIL_H_
