// E19 — multi-tenant virtual block devices: the blkif-style
// front-end/back-end split multiplexing many tenants onto one device.
//
// Emits BENCH_vbd.json with its gates:
//   - "neutral": a single pass-through tenant (whole device, no QoS
//     gate) must produce a schedule bit-identical to driving the
//     device directly — the in-binary proxy for "all 12 paper benches
//     unchanged with no tenants configured";
//   - "scaling": create/run/destroy at 1/16/256/1024 tenants (sim-time
//     IOPS, wall clock, full-run digest), with the 256-tenant point run
//     twice — the digests must match (determinism at scale);
//   - "noisy": the uFLIP noisy-neighbor scene on a real flash device.
//     One latency-sensitive tenant reads at depth while an aggressor
//     issues GC-heavy random writes. Unthrottled, the victim's p999
//     collapses (the motivating number); with DRR QoS weights on the
//     backend's admission gate, the aggressor is starved of device
//     slots, never pushes the device over the GC cliff, and the
//     victim's p999 stays < 2x its solo run — the
//     vbd.noisy.p999_ratio_qos bound.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "blocklayer/simple_device.h"
#include "common/histogram.h"
#include "common/table.h"
#include <chrono>
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ftl/ftl.h"
#include "ssd/device.h"
#include "vbd/backend.h"
#include "vbd/frontend.h"
#include "vbd/vbd.h"
#include "workload/multi_tenant.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

blocklayer::SimpleDeviceConfig FastNvm(std::uint64_t blocks) {
  blocklayer::SimpleDeviceConfig cfg;
  cfg.num_blocks = blocks;
  cfg.read_ns = 8 * kMicrosecond;
  cfg.write_ns = 10 * kMicrosecond;
  cfg.units = 64;
  cfg.controller_overhead_ns = 1 * kMicrosecond;
  return cfg;
}

// Schedule fingerprint: FNV-1a over every (completion time, io id) in
// completion order, plus the final sim time (bench_mq's witness).
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t completed = 0;
  SimTime end = 0;

  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
};

// --- Neutrality -------------------------------------------------------

/// Sequential write pass over the whole device then `reads` strided
/// reads, closed loop; `through_vbd` routes every IO through a Backend
/// with one whole-device pass-through tenant instead of the raw device.
Fingerprint RunNeutral(bool through_vbd, std::uint64_t blocks,
                       std::uint64_t reads) {
  sim::Simulator sim;
  blocklayer::SimpleBlockDevice dev(&sim, FastNvm(blocks));
  std::unique_ptr<vbd::Backend> backend;
  blocklayer::BlockDevice* target = &dev;
  if (through_vbd) {
    backend = std::make_unique<vbd::Backend>(&sim, &dev);
    vbd::TenantConfig tc;
    tc.name = "passthrough";
    tc.capacity_blocks = blocks;
    target = backend->CreateTenant(tc).value();
  }

  Fingerprint fp;
  const std::uint64_t ops = blocks + reads;
  std::uint64_t issued = 0;
  std::function<void()> issue = [&] {
    while (issued < ops && issued - fp.completed < 16) {
      blocklayer::IoRequest r;
      const std::uint64_t id = issued++;
      if (id < blocks) {
        r.op = blocklayer::IoOp::kWrite;
        r.lba = id;
        r.tokens = {id + 1};
      } else {
        r.op = blocklayer::IoOp::kRead;
        r.lba = (id * 37) % blocks;
      }
      r.nblocks = 1;
      r.on_complete = [&, id](const blocklayer::IoResult&) {
        ++fp.completed;
        fp.Mix(sim.Now());
        fp.Mix(id);
        issue();
      };
      target->Submit(std::move(r));
    }
  };
  issue();
  fp.end = sim.Run();
  return fp;
}

// --- Tenant-count scaling ---------------------------------------------

struct ScalePoint {
  std::uint32_t tenants = 0;
  std::uint64_t ios = 0;
  double sim_ms = 0;
  double wall_ms = 0;
  double iops = 0;  // sim-time IOPS across all tenants
  std::uint64_t digest = 0;
};

/// Full lifecycle at `n` tenants: create all, run a concurrent write
/// mix (64 shared device slots, DRR weights 1..4), destroy all. The
/// digest folds every completion (tenant, time, status) plus the final
/// clock — the run-twice determinism witness.
ScalePoint RunScale(std::uint32_t n) {
  const auto wall0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  blocklayer::SimpleBlockDevice dev(&sim,
                                    FastNvm(static_cast<std::uint64_t>(n) *
                                            64));
  vbd::BackendConfig cfg;
  cfg.shared_depth = 64;
  vbd::Backend backend(&sim, &dev, cfg);

  std::vector<vbd::Frontend*> fes;
  std::vector<std::unique_ptr<workload::Pattern>> patterns;
  std::vector<workload::TenantLoad> loads;
  fes.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    vbd::TenantConfig tc;
    tc.capacity_blocks = 64;
    tc.qos_weight = 1 + t % 4;
    fes.push_back(backend.CreateTenant(tc).value());
    patterns.push_back(std::make_unique<workload::RandomPattern>(
        0, 64, /*is_write=*/true, 1, /*seed=*/1000 + t));
    loads.push_back({fes.back(), patterns.back().get(), /*ops=*/50,
                     /*queue_depth=*/2, /*think_ns=*/0});
  }
  const workload::MixResult mix = workload::RunMultiTenantMix(&sim, loads);

  std::uint64_t destroyed = 0;
  for (vbd::Frontend* fe : fes) {
    (void)backend.DestroyTenant(
        fe->id(), [&](const blocklayer::IoResult&) { ++destroyed; });
  }
  sim.Run();

  ScalePoint p;
  p.tenants = n;
  p.ios = static_cast<std::uint64_t>(n) * 50;
  p.sim_ms = static_cast<double>(mix.elapsed_ns) / 1e6;
  p.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall0)
                  .count();
  p.iops = static_cast<double>(p.ios) /
           (static_cast<double>(mix.elapsed_ns) / 1e9);
  Fingerprint fp;
  fp.hash = mix.digest;
  fp.Mix(sim.Now());
  fp.Mix(destroyed);
  p.digest = fp.hash;
  return p;
}

// --- Noisy neighbor ---------------------------------------------------

struct NoisyScene {
  std::uint64_t p999_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t victim_reads = 0;
  std::uint64_t aggressor_writes = 0;
  std::uint64_t gc_erases = 0;
  // SLO watchdog observations (slo_bound_ns > 0 runs only).
  std::uint64_t slo_breaches = 0;
  std::uint64_t slo_digest = 0;
};

constexpr std::uint64_t kVictimBlocks = 512;
constexpr std::uint64_t kAggressorBlocks = 1024;
constexpr std::uint64_t kVictimOps = 20000;
constexpr std::uint32_t kVictimDepth = 32;

/// One deterministic noisy-neighbor scene on a Small flash device.
/// `with_aggressor` adds the random-write tenant; `qos` turns on the
/// backend's shared-depth DRR gate (victim weight 64 : aggressor 1).
/// `slo_bound_ns` > 0 attaches the obs::SloWatchdog on a 2 ms sampling
/// grid with a p999 bound on the victim's per-window read latency —
/// read-only observability, so the scene's schedule is unchanged.
NoisyScene RunNoisy(bool with_aggressor, bool qos,
                    std::uint64_t slo_bound_ns = 0) {
  sim::Simulator sim;
  ssd::Config dc = ssd::Config::Small();
  ssd::Device dev(&sim, dc);

  metrics::MetricRegistry registry;
  vbd::BackendConfig cfg;
  if (qos) cfg.shared_depth = kVictimDepth;
  if (slo_bound_ns > 0) cfg.metrics = &registry;
  vbd::Backend backend(&sim, &dev, cfg);

  vbd::TenantConfig vc;
  vc.name = "victim";
  vc.capacity_blocks = kVictimBlocks;
  vc.qos_weight = 64;
  vc.register_metrics = slo_bound_ns > 0;
  vbd::Frontend* victim = backend.CreateTenant(vc).value();

  vbd::Frontend* aggressor = nullptr;
  if (with_aggressor) {
    vbd::TenantConfig ac;
    ac.name = "aggressor";
    ac.capacity_blocks = kAggressorBlocks;
    ac.qos_weight = 1;
    aggressor = backend.CreateTenant(ac).value();
  }

  // Precondition: the victim's namespace is fully written (its reads
  // must hit media, not the thin-provisioning zero path); the
  // aggressor starts half full so its random overwrites invalidate
  // pages and drag the device toward the GC cliff.
  workload::SequentialPattern vfill(0, kVictimBlocks, /*is_write=*/true);
  workload::RunClosedLoop(&sim, victim, &vfill, kVictimBlocks, 8);
  if (aggressor != nullptr) {
    workload::SequentialPattern afill(0, kAggressorBlocks / 2,
                                      /*is_write=*/true);
    workload::RunClosedLoop(&sim, aggressor, &afill, kAggressorBlocks / 2,
                            8);
  }
  sim.Run();
  const std::uint64_t erases_before = dev.ftl()->counters().Get("gc_erases");

  // The SLO watchdog rides the sampler grid, started only for the
  // measured mix (the fill traffic above is not part of the objective).
  std::unique_ptr<metrics::Sampler> sampler;
  std::unique_ptr<obs::SloWatchdog> watchdog;
  if (slo_bound_ns > 0) {
    sampler = std::make_unique<metrics::Sampler>(&sim, &registry,
                                                 2 * kMillisecond);
    watchdog = std::make_unique<obs::SloWatchdog>(std::vector<obs::SloSpec>{
        {"victim read p999", "vbd.victim.read_lat_ns",
         obs::SloKind::kMaxP999, static_cast<double>(slo_bound_ns),
         /*min_window_count=*/16}});
    sampler->set_observer(watchdog.get());
    sampler->Start();
  }

  workload::RandomPattern vreads(0, kVictimBlocks, /*is_write=*/false, 1,
                                 /*seed=*/5);
  workload::RandomPattern awrites(0, kAggressorBlocks, /*is_write=*/true,
                                  1, /*seed=*/6);
  std::vector<workload::TenantLoad> loads;
  loads.push_back({victim, &vreads, kVictimOps, kVictimDepth, 0});
  if (aggressor != nullptr) {
    loads.push_back({aggressor, &awrites, /*ops=*/0, /*queue_depth=*/8,
                     /*think_ns=*/0});
  }
  const workload::MixResult mix = workload::RunMultiTenantMix(&sim, loads);
  if (sampler != nullptr) sampler->Stop();

  NoisyScene s;
  s.p999_ns = mix.tenants[0].read_latency.P999();
  s.p50_ns = mix.tenants[0].read_latency.P50();
  s.victim_reads = mix.tenants[0].completed;
  s.aggressor_writes =
      aggressor != nullptr ? mix.tenants[1].completed : 0;
  s.gc_erases = dev.ftl()->counters().Get("gc_erases") - erases_before;
  if (watchdog != nullptr) {
    s.slo_breaches = watchdog->total_breaches();
    s.slo_digest = watchdog->Digest();
  }
  return s;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E19", "multi-tenant virtual block devices — isolation and QoS",
      "the block interface multiplexes tenants blindly; a vbd split "
      "with per-tenant namespaces and DRR admission bounds a victim's "
      "tail latency while an aggressor runs GC-heavy writes");

  // 1. Neutrality: pass-through tenant vs raw device.
  const Fingerprint raw = RunNeutral(false, 4096, 8000);
  const Fingerprint vbd_fp = RunNeutral(true, 4096, 8000);
  const bool schedule_identical = raw.hash == vbd_fp.hash &&
                                  raw.end == vbd_fp.end &&
                                  raw.completed == vbd_fp.completed;
  bench::Section("pass-through neutrality");
  std::printf(
      "raw device vs 1 whole-device tenant: %s (fingerprint %016llx, "
      "%llu IOs, sim end %llu ns)\n",
      schedule_identical ? "schedule identical" : "SCHEDULES DIVERGED",
      static_cast<unsigned long long>(raw.hash),
      static_cast<unsigned long long>(raw.completed),
      static_cast<unsigned long long>(raw.end));

  // 2. Tenant-count scaling, with the 256 point run twice.
  bench::Section("tenant-count scaling (create/run/destroy, 50 IOs/tenant)");
  std::vector<ScalePoint> scale;
  std::uint64_t digest256_a = 0, digest256_b = 0;
  {
    Table table({"tenants", "IOs", "sim ms", "wall ms", "sim IOPS"});
    for (const std::uint32_t n : {1u, 16u, 256u, 1024u}) {
      const ScalePoint p = RunScale(n);
      if (n == 256) {
        digest256_a = p.digest;
        digest256_b = RunScale(n).digest;
      }
      scale.push_back(p);
      table.AddRow({std::to_string(p.tenants), std::to_string(p.ios),
                    Table::Num(p.sim_ms, 2), Table::Num(p.wall_ms, 1),
                    Table::Num(p.iops, 0)});
    }
    table.Print();
  }
  const bool digest_identical = digest256_a == digest256_b;
  std::printf("256-tenant run-twice digest: %s (%016llx)\n",
              digest_identical ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(digest256_a));

  // 3. Noisy neighbor on flash: solo, unthrottled, QoS-throttled.
  bench::Section("noisy neighbor (flash, victim reads qd32 vs GC-heavy "
                 "random writes)");
  const NoisyScene solo = RunNoisy(false, false);
  // Declare the same objective as a live SLO: victim per-window read
  // p999 <= 2x its solo p999, watched by obs::SloWatchdog on both
  // shared scenes. The unthrottled scene is the intentional breacher.
  const std::uint64_t slo_bound_ns = 2 * solo.p999_ns;
  const NoisyScene noqos = RunNoisy(true, false, slo_bound_ns);
  const NoisyScene qos = RunNoisy(true, true, slo_bound_ns);
  const double ratio_noqos = static_cast<double>(noqos.p999_ns) /
                             static_cast<double>(solo.p999_ns);
  const double ratio_qos = static_cast<double>(qos.p999_ns) /
                           static_cast<double>(solo.p999_ns);
  {
    Table table({"scene", "victim p50", "victim p999", "vs solo",
                 "aggressor IOs", "GC erases"});
    const auto row = [&](const char* name, const NoisyScene& s,
                         double ratio) {
      table.AddRow({name, Table::Num(s.p50_ns / 1e3, 0) + " us",
                    Table::Num(s.p999_ns / 1e3, 0) + " us",
                    ratio == 0 ? "-" : Table::Num(ratio, 2) + "x",
                    std::to_string(s.aggressor_writes),
                    std::to_string(s.gc_erases)});
    };
    row("solo", solo, 0);
    row("shared, no QoS", noqos, ratio_noqos);
    row("shared, DRR 64:1", qos, ratio_qos);
    table.Print();
  }
  std::printf(
      "\nshape check: unthrottled sharing multiplies the victim's p999 "
      "(%.1fx); the DRR admission gate starves the aggressor of device "
      "slots and holds it to %.2fx (< 2x required).\n",
      ratio_noqos, ratio_qos);
  std::printf(
      "SLO watchdog (victim window p999 <= %.0f us): %llu breaches "
      "unthrottled, %llu with QoS (digests %016llx / %016llx)\n",
      slo_bound_ns / 1e3,
      static_cast<unsigned long long>(noqos.slo_breaches),
      static_cast<unsigned long long>(qos.slo_breaches),
      static_cast<unsigned long long>(noqos.slo_digest),
      static_cast<unsigned long long>(qos.slo_digest));

  constexpr double kMaxQosP999Ratio = 2.0;
  const std::vector<bench::Gate> gates = {
      bench::CheckGate("vbd.neutral.schedule_identical", schedule_identical),
      bench::CheckGate("vbd.scaling.digest_identical_256", digest_identical),
      bench::MakeGate("vbd.noisy.p999_ratio_qos", ratio_qos,
                      bench::Bound::kBelow, kMaxQosP999Ratio),
  };

  std::FILE* f = std::fopen("BENCH_vbd.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, nullptr, 0, /*tenants=*/1024, /*queues=*/1);
    std::fprintf(f,
                 "  \"neutral\": {\"schedule_identical\": %s, "
                 "\"fingerprint\": \"%016llx\", \"ios\": %llu},\n",
                 schedule_identical ? "true" : "false",
                 static_cast<unsigned long long>(raw.hash),
                 static_cast<unsigned long long>(raw.completed));
    std::fprintf(f, "  \"scaling\": {");
    for (std::size_t i = 0; i < scale.size(); ++i) {
      std::fprintf(f,
                   "%s\"t%u\": {\"ios\": %llu, \"sim_ms\": %.3f, "
                   "\"wall_ms\": %.1f, \"iops\": %.0f}",
                   i == 0 ? "" : ", ", scale[i].tenants,
                   static_cast<unsigned long long>(scale[i].ios),
                   scale[i].sim_ms, scale[i].wall_ms, scale[i].iops);
    }
    std::fprintf(f, ", \"digest_identical_256\": %s},\n",
                 digest_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"noisy\": {\"p999_solo_us\": %.1f, "
                 "\"p999_noqos_us\": %.1f, \"p999_qos_us\": %.1f, "
                 "\"ratio_noqos\": %.3f, \"ratio_qos\": %.3f, "
                 "\"gc_erases_noqos\": %llu, \"gc_erases_qos\": %llu},\n",
                 solo.p999_ns / 1e3, noqos.p999_ns / 1e3,
                 qos.p999_ns / 1e3, ratio_noqos, ratio_qos,
                 static_cast<unsigned long long>(noqos.gc_erases),
                 static_cast<unsigned long long>(qos.gc_erases));
    std::fprintf(f,
                 "  \"slo\": {\"bound_ns\": %llu, "
                 "\"breaches_noqos\": %llu, \"breaches_qos\": %llu, "
                 "\"digest_noqos\": \"%016llx\", \"digest_qos\": "
                 "\"%016llx\"},\n",
                 static_cast<unsigned long long>(slo_bound_ns),
                 static_cast<unsigned long long>(noqos.slo_breaches),
                 static_cast<unsigned long long>(qos.slo_breaches),
                 static_cast<unsigned long long>(noqos.slo_digest),
                 static_cast<unsigned long long>(qos.slo_digest));
    std::fputs(bench::GatesJson(gates).c_str(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_vbd.json\n");
  }
  return 0;
}
