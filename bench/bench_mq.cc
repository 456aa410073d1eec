// E17 — the multi-queue host path: IOPS vs queue count under a
// CPU-cost-bound fig-E9-style workload, 1-queue neutrality of the mq
// machinery, and per-IO allocation accounting.
//
// Emits BENCH_mq.json with its gates (all sim-time, so exact):
//   - "schedule_identical": a default config and a config spelling out
//     every mq knob at its neutral value must produce bit-identical
//     schedules (the in-binary proxy for "1 queue == pre-mq layer");
//   - "one_queue": deterministic sim-time IOPS of the 1-queue path,
//     within 2% of the IOPS measured when the mq layer landed — the
//     1-queue overhead gate (any new per-IO cost on the default path
//     shows up here);
//   - "scaling": IOPS at 1/2/4/8 queues with the per-queue submission
//     lock as the bottleneck; 4 queues must beat 1 queue by >= 2x;
//   - "allocs": steady-state heap allocations per IO — every one in the
//     process, counted by the operator new below — and the CallbackSlab
//     chunk traffic among them (the InplaceCallback-backed completion
//     path must not hit the heap).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "blocklayer/block_layer.h"
#include "blocklayer/simple_device.h"
#include "common/table.h"
#include "sim/inplace_callback.h"
#include "workload/patterns.h"

// --- Counting allocator hook -------------------------------------------
// Global operator new/delete overrides local to this binary; every heap
// allocation anywhere in the process bumps the counter.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace postblock {
namespace {

// A next-generation NVM device fast enough that the host path is the
// bottleneck (the E9 situation).
blocklayer::SimpleDeviceConfig FastNvm() {
  blocklayer::SimpleDeviceConfig cfg;
  cfg.num_blocks = 1 << 20;
  cfg.read_ns = 8 * kMicrosecond;
  cfg.write_ns = 10 * kMicrosecond;
  cfg.units = 64;
  cfg.controller_overhead_ns = 1 * kMicrosecond;
  return cfg;
}

// Host CPU costs where the per-queue submission lock dominates: each
// request holds its queue's lock for schedule_ns, so a single queue
// serializes at ~1/schedule_ns IOPS no matter how many cores submit —
// the 2012 single-queue bottleneck. Splitting into N queues splits the
// serialization.
blocklayer::CpuCosts LockBoundCosts() {
  blocklayer::CpuCosts c;
  c.submit_ns = 400;
  c.schedule_ns = 2000;
  c.interrupt_ns = 2000;
  c.polled_ns = 400;
  return c;
}

double RunQueues(std::uint32_t nr_queues, std::uint64_t ops) {
  sim::Simulator sim;
  blocklayer::SimpleBlockDevice device(&sim, FastNvm());
  blocklayer::BlockLayerConfig cfg;
  cfg.cpu = LockBoundCosts();
  cfg.cores = 8;
  cfg.nr_queues = nr_queues;
  cfg.queue_depth = 64;
  cfg.interrupt_completion = false;  // polled, E9's fast-path ending
  blocklayer::BlockLayer layer(&sim, &device, cfg);
  workload::RandomPattern writes(0, device.num_blocks(), true, 1, 3);
  const auto r = workload::RunClosedLoop(&sim, &layer, &writes, ops, 256);
  return r.Iops();
}

// Schedule fingerprint: FNV-1a over every (completion time, io id) in
// completion order, plus the final sim time. Bit-identical schedules
// hash identically; any reordering or retiming diverges.
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

Fingerprint RunFingerprint(const blocklayer::BlockLayerConfig& cfg,
                           std::uint64_t ops) {
  sim::Simulator sim;
  blocklayer::SimpleBlockDevice dev(&sim, FastNvm());
  blocklayer::BlockLayer layer(&sim, &dev, cfg);
  Fingerprint fp;
  std::uint64_t issued = 0;
  std::function<void()> issue = [&] {
    while (issued < ops && issued - fp.completed < 16) {
      blocklayer::IoRequest r;
      r.op = blocklayer::IoOp::kRead;
      r.lba = (issued * 37) % dev.num_blocks();
      r.nblocks = 1;
      r.stream = static_cast<std::uint8_t>(issued % 3);
      const std::uint64_t id = issued++;
      r.on_complete = [&, id](const blocklayer::IoResult&) {
        ++fp.completed;
        fp.Mix(sim.Now());
        fp.Mix(id);
        issue();
      };
      layer.Submit(std::move(r));
    }
  };
  issue();
  fp.end = sim.Run();
  return fp;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E17", "multi-queue host path — IOPS vs queue count",
      "once the device is fast, the single software queue's lock caps "
      "IOPS; per-context queues with private locks scale submission "
      "near-linearly until cores or the device bind");

  // 1. Schedule identity: default config vs every-knob-neutral config.
  blocklayer::BlockLayerConfig def;
  blocklayer::BlockLayerConfig neutral;
  neutral.tags_per_queue = 0;
  neutral.stream_queues = false;
  neutral.doorbell_batch = 1;
  neutral.doorbell_ns = 0;
  neutral.coalesce_depth = 1;
  neutral.coalesce_ns = 0;
  neutral.shared_depth = 0;
  neutral.qos_weights = {};
  neutral.merge_window = 1;
  neutral.cross_stream_merge = false;
  const Fingerprint fp_def = RunFingerprint(def, 4000);
  const Fingerprint fp_neutral = RunFingerprint(neutral, 4000);
  const bool schedule_identical = fp_def.hash == fp_neutral.hash &&
                                  fp_def.end == fp_neutral.end &&
                                  fp_def.completed == fp_neutral.completed;

  bench::Section("1-queue neutrality");
  std::printf(
      "default vs explicit-neutral mq knobs: %s (fingerprint %016llx, "
      "%llu IOs, sim end %llu ns)\n",
      schedule_identical ? "schedule identical" : "SCHEDULES DIVERGED",
      static_cast<unsigned long long>(fp_def.hash),
      static_cast<unsigned long long>(fp_def.completed),
      static_cast<unsigned long long>(fp_def.end));

  // 2. IOPS vs queue count, lock-bound. Sim-time, fully deterministic.
  const std::uint64_t kOps = 200000;
  bench::Section(
      "4KiB random writes, lock-bound host path (schedule=2us/IO): "
      "IOPS by nr_queues");
  std::vector<std::pair<std::uint32_t, double>> scaling;
  double iops1 = 0;
  {
    Table table({"nr_queues", "IOPS", "speedup vs 1q"});
    for (std::uint32_t nq : {1u, 2u, 4u, 8u}) {
      const double iops = RunQueues(nq, kOps);
      if (nq == 1) iops1 = iops;
      scaling.emplace_back(nq, iops);
      table.AddRow({std::to_string(nq), Table::Num(iops, 0),
                    Table::Num(iops / iops1, 2) + "x"});
    }
    table.Print();
  }
  double iops4 = 0;
  for (const auto& [nq, iops] : scaling) {
    if (nq == 4) iops4 = iops;
  }
  const double speedup4 = iops4 / iops1;

  // 3. Steady-state allocations per IO. The first run warms the
  // CallbackSlab free list; the measured run must serve every boxed
  // callback from it. The heap count covers the whole measured run,
  // including building its simulator, device and block layer.
  sim::CallbackSlab::ResetStats();
  const std::uint64_t kAllocOps = 50000;
  (void)RunQueues(4, kAllocOps);  // warm
  sim::CallbackSlab::ResetStats();
  const std::uint64_t heap0 = g_alloc_count.load(std::memory_order_relaxed);
  (void)RunQueues(4, kAllocOps);  // measured
  const double heap_allocs_per_io =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                          heap0) /
      kAllocOps;
  const auto slab = sim::CallbackSlab::stats();
  const double allocs_per_io =
      static_cast<double>(slab.chunk_allocs) / kAllocOps;
  const double reuses_per_io =
      static_cast<double>(slab.chunk_reuses) / kAllocOps;

  bench::Section("completion-path allocations (steady state)");
  std::printf(
      "slab chunk allocs/IO %.4f (reuses/IO %.2f, oversize %llu) over "
      "%llu IOs at 4 queues\n",
      allocs_per_io, reuses_per_io,
      static_cast<unsigned long long>(slab.oversize_allocs),
      static_cast<unsigned long long>(kAllocOps));

  std::printf(
      "\nshape check: IOPS scales with queue count while the lock "
      "binds (>=2x at 4 queues); 1 queue is schedule-identical to the "
      "pre-mq layer; the hot path never allocates in steady state.\n");

  // 1-queue sim-time IOPS when the mq layer landed; the default path
  // may lose at most kOneQueueTolerance of it.
  constexpr double kOneQueueIops = 499985.3;
  constexpr double kOneQueueTolerance = 0.02;
  constexpr double kMinSpeedup4q = 2.0;
  constexpr double kMaxChunkAllocsPerIo = 0.01;
  constexpr double kMaxHeapAllocsPerIo = 0.1;
  const std::vector<bench::Gate> gates = {
      bench::CheckGate("mq.schedule_identical", schedule_identical),
      bench::MakeGate("mq.one_queue_iops", iops1, bench::Bound::kAtLeast,
                      kOneQueueIops * (1.0 - kOneQueueTolerance)),
      bench::MakeGate("mq.speedup_4q", speedup4, bench::Bound::kAtLeast,
                      kMinSpeedup4q),
      bench::MakeGate("mq.chunk_allocs_per_io", allocs_per_io,
                      bench::Bound::kBelow, kMaxChunkAllocsPerIo),
      bench::MakeGate("mq.heap_allocs_per_io", heap_allocs_per_io,
                      bench::Bound::kBelow, kMaxHeapAllocsPerIo),
  };

  std::FILE* f = std::fopen("BENCH_mq.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    // Topology stamp: single-tenant workload swept up to 8 mq queues.
    bench::WriteJsonMeta(f, nullptr, 0, /*tenants=*/1, /*queues=*/8);
    std::fprintf(f, "  \"schedule_identical\": %s,\n",
                 schedule_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"one_queue\": {\"iops\": %.1f, \"sim_end_ns\": %llu, "
                 "\"fingerprint\": \"%016llx\"},\n",
                 iops1, static_cast<unsigned long long>(fp_def.end),
                 static_cast<unsigned long long>(fp_def.hash));
    std::fprintf(f, "  \"scaling\": {");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      std::fprintf(f, "%s\"q%u\": %.1f", i == 0 ? "" : ", ",
                   scaling[i].first, scaling[i].second);
    }
    std::fprintf(f, ", \"speedup_4q\": %.3f},\n", speedup4);
    std::fprintf(f,
                 "  \"allocs\": {\"heap_allocs_per_io\": %.5f, "
                 "\"chunk_allocs_per_io\": %.5f, "
                 "\"chunk_reuses_per_io\": %.3f, \"oversize_allocs\": "
                 "%llu},\n",
                 heap_allocs_per_io, allocs_per_io, reuses_per_io,
                 static_cast<unsigned long long>(slab.oversize_allocs));
    std::fputs(bench::GatesJson(gates).c_str(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_mq.json\n");
  }
  return 0;
}
