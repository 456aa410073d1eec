// The four workloads. Each function is one repetition: it builds a
// fresh stack (construction + preconditioning = set-up), runs a fixed,
// seeded, closed-loop timed phase, checks the outputs and digests the
// model's observables. Op counts are fixed per workload (never derived
// from host speed), so every sim-time observable is a pure function of
// the seed.

#include "workloads.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "blocklayer/block_layer.h"
#include "db/storage_manager.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/sharded_device.h"
#include "trace/tracer.h"
#include "vbd/backend.h"

namespace perfbench {

namespace pb = postblock;
using pb::trace::Origin;
using pb::trace::Stage;

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// Timed-phase sizes (see perfbench/README.md for how they were sized).
constexpr std::uint64_t kAgedOps = 1'000'000;
constexpr std::uint64_t kMqOps = 600'000;
constexpr std::uint64_t kDbTxns = 50'000;  // per wiring
constexpr std::uint64_t kShardedIos = 60'000;  // short: one slice per rep

std::uint64_t TimedOps(std::uint64_t full, const RepParams& p) {
  const std::uint64_t n = (p.warmup ? full / 8 : full) / p.scale_div;
  return std::max<std::uint64_t>(n, 64);
}

}  // namespace

pb::ssd::Config Fig2Config(pb::trace::Tracer* tracer) {
  pb::ssd::Config c = pb::ssd::Config::Consumer2012();
  // 16-page blocks instead of 64: a quarter of the capacity, so aging
  // (2x capacity of random overwrites) fits a repetition, with the same
  // channels, LUNs and blocks per LUN (and so the same GC headroom).
  c.geometry.pages_per_block = 16;
  c.over_provisioning = 0.10;
  c.tracer = tracer;
  return c;
}

namespace {

/// Wall-clock, CPU, event and allocation window around a timed phase.
/// `clock` is the repetition's, which timed its set-up.
class TimedPhase {
 public:
  TimedPhase(pb::sim::Simulator* sim, bool traced, ScaledCpuClock* clock)
      : sim_(sim), traced_(traced), clock_(clock) {
    if (traced_) Spans().Start(1 << 20);
    events_ = sim_->events_executed();
    sim_start_ = sim_->Now();
    allocs_ = AllocCount();
    wall_ = WallNs();
    clock_->Restart();
  }
  void Finish(RepResult* r) {
    r->timed_s = static_cast<double>(WallNs() - wall_) / 1e9;
    r->allocs = AllocCount() - allocs_;
    r->events = sim_->events_executed() - events_;
    r->cpu_s = clock_->Lap();
    if (traced_) Spans().Stop();
  }
  SimTime sim_start() const { return sim_start_; }

 private:
  pb::sim::Simulator* sim_;
  bool traced_;
  ScaledCpuClock* clock_;
  std::uint64_t events_ = 0;
  SimTime sim_start_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t wall_ = 0;
};

/// Per-op LatencyBreakdown stage totals of every origin but GC and
/// wear levelling (host reads/writes, and on the vision path the
/// nameless commands, which trace as internal traffic).
void AddStageTotals(const pb::trace::LatencyBreakdown& b, std::uint64_t ops,
                    RepResult* r) {
  auto per_op_us = [&](Stage s) {
    const std::uint64_t ns = b.TotalNs(s) - b.TotalNs(s, Origin::kGc) -
                             b.TotalNs(s, Origin::kWearLevel);
    return static_cast<double>(ns) / 1e3 / static_cast<double>(ops);
  };
  r->layer["ssd.queue_wait_us"] = per_op_us(Stage::kQueueWait);
  r->layer["ssd.gc_stall_us"] = per_op_us(Stage::kGcStall);
  r->layer["ssd.transfer_us"] = per_op_us(Stage::kTransfer);
  r->layer["flash.cell_us"] = per_op_us(Stage::kCellOp);
  r->layer["ftl.map_us"] = per_op_us(Stage::kMap);
  r->layer["blocklayer.schedule_us"] = per_op_us(Stage::kSchedule);
}

/// Span totals per op: the top layer's submit call and the event loop.
void AddSpanTotals(std::uint64_t ops, RepResult* r) {
  const double n = static_cast<double>(ops);
  r->layer["submit.ns_per_op"] =
      static_cast<double>(Spans().total_ns(SpanKind::kSubmit)) / n;
  r->layer["run.ns_per_op"] =
      static_cast<double>(Spans().total_ns(SpanKind::kRun)) / n;
}

/// FTL/flash counters of one device over a window, as exact ratios.
struct DeviceCounts {
  std::uint64_t host_pages = 0;
  std::uint64_t programmed = 0;
  std::uint64_t gc_moves = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t gc_stall_read_ns = 0;

  static DeviceCounts Of(pb::ssd::Device* dev) {
    DeviceCounts c;
    c.host_pages = dev->ftl()->counters().Get("host_pages_accepted");
    c.programmed = dev->controller()->counters().Get("pages_programmed");
    c.gc_moves = dev->ftl()->counters().Get("gc_page_moves");
    c.gc_erases = dev->ftl()->counters().Get("gc_erases");
    c.gc_stall_read_ns = dev->controller()->GcStallReadNs();
    return c;
  }
  DeviceCounts Minus(const DeviceCounts& o) const {
    return {host_pages - o.host_pages, programmed - o.programmed,
            gc_moves - o.gc_moves, gc_erases - o.gc_erases,
            gc_stall_read_ns - o.gc_stall_read_ns};
  }
  double WriteAmp() const {
    return host_pages == 0 ? 0
                           : static_cast<double>(programmed) /
                                 static_cast<double>(host_pages);
  }
  void AddTo(std::uint64_t ops, RepResult* r) const {
    const double n = static_cast<double>(ops);
    r->layer["ftl.gc_page_moves_per_kop"] = gc_moves * 1e3 / n;
    r->layer["ftl.gc_erases_per_kop"] = gc_erases * 1e3 / n;
    r->layer["flash.programs_per_op"] = programmed / n;
    r->layer["ssd.gc_stall_read_ns"] = gc_stall_read_ns / n;
  }
};

void DigestDevice(pb::ssd::Device& dev, Digest* d) {
  d->Add(dev.counters())
      .Add(dev.controller()->counters())
      .Add(dev.ftl()->counters())
      .Add(dev.read_latency())
      .Add(dev.write_latency());
}

void DigestLatencies(const std::vector<std::uint64_t>& lat, Digest* d) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : lat) sum += v;
  d->Add(static_cast<std::uint64_t>(lat.size())).Add(sum);
}

// --- aged_mix ---------------------------------------------------------------

RepResult AgedMix(const RepParams& p) {
  RepResult r;
  const std::uint64_t ops = TimedOps(kAgedOps, p);
  pb::trace::Tracer tracer;
  ScaledCpuClock clock;
  pb::sim::Simulator sim;
  pb::ssd::Device dev(&sim, Fig2Config(p.traced ? &tracer : nullptr));
  const std::uint64_t n = dev.num_blocks();
  std::vector<std::uint64_t> shadow(n, 0);
  std::uint64_t token = 0;
  r.failed += FillSequential(&sim, &dev, n, &shadow, &token);
  r.failed += AgeRandom(&sim, &dev, n, 2 * n, SubSeed(p.seed, 1), &shadow,
                        &token);
  r.attempted += 3 * n;
  r.setup_s = clock.Lap();

  ClosedLoop loop(&sim, &token, /*record_latency=*/true);
  Client c;
  c.device = &dev;
  c.queue_depth = 32;
  c.quota = ops;
  c.write_fraction = 0.30;
  c.lba_count = n;
  c.seed = SubSeed(p.seed, 2);
  c.shadow = &shadow;
  loop.Add(c);
  const DeviceCounts before = DeviceCounts::Of(&dev);
  tracer.set_enabled(p.traced);
  TimedPhase phase(&sim, p.traced, &clock);
  loop.Run();
  phase.Finish(&r);
  tracer.set_enabled(false);
  const DeviceCounts delta = DeviceCounts::Of(&dev).Minus(before);

  r.ops = loop.completed();
  r.attempted += r.ops;
  r.failed += loop.failed();
  const SimTime sim_ns = sim.Now() - phase.sim_start();
  r.sim_ops_per_s = static_cast<double>(r.ops) * 1e9 / sim_ns;
  r.write_amp = delta.WriteAmp();
  Digest d;
  d.Add(sim.Now()).Add(r.ops).Add(r.failed).Add(r.write_amp);
  DigestDevice(dev, &d);
  DigestLatencies(loop.latencies(), &d);
  SetLatency(&r, &loop.latencies());
  d.Add(r.sim_lat_us_p50).Add(r.sim_lat_us_p99);
  r.digest = d.Hex();

  if (p.traced) {
    AddStageTotals(tracer.breakdown(), r.ops, &r);
    AddSpanTotals(r.ops, &r);
    delta.AddTo(r.ops, &r);
  }
  return r;
}

// --- mq_read ----------------------------------------------------------------

constexpr std::uint32_t kTenants = 4;

RepResult MqRead(const RepParams& p) {
  RepResult r;
  const std::uint64_t ops = TimedOps(kMqOps, p);
  pb::trace::Tracer tracer;
  pb::trace::Tracer* tr = p.traced ? &tracer : nullptr;
  ScaledCpuClock clock;
  pb::sim::Simulator sim;
  pb::ssd::Device dev(&sim, Fig2Config(tr));
  pb::blocklayer::BlockLayerConfig bl;
  bl.nr_queues = 4;
  bl.queue_depth = 4;  // per queue: shallow, so requests queue and merge
  bl.stream_queues = true;
  bl.doorbell_batch = 8;
  bl.doorbell_ns = 300;
  bl.coalesce_depth = 8;
  bl.coalesce_ns = 2 * pb::kMicrosecond;
  bl.tracer = tr;
  pb::blocklayer::BlockLayer layer(&sim, &dev, bl);
  pb::vbd::Backend backend(&sim, &layer);
  const std::uint64_t per_tenant = dev.num_blocks() / kTenants;
  std::vector<pb::vbd::Frontend*> tenants;
  std::vector<std::vector<std::uint64_t>> shadows(
      kTenants, std::vector<std::uint64_t>(per_tenant, 0));
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    pb::vbd::TenantConfig tc;
    tc.capacity_blocks = per_tenant;
    tc.stream = static_cast<std::uint8_t>(t + 1);
    auto fe = backend.CreateTenant(tc);
    if (!fe.ok()) {
      r.failed += 1;
      return r;
    }
    tenants.push_back(fe.value());
  }
  std::uint64_t token = 0;
  {
    // Sequential fill through the tenants, so their allocation maps are
    // full and every timed read reaches the media.
    ClosedLoop fill(&sim, &token, /*record_latency=*/false);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      Client c;
      c.device = tenants[t];
      c.queue_depth = 8;
      c.quota = per_tenant;
      c.write_fraction = 1.0;
      c.sequential = true;
      c.lba_count = per_tenant;
      c.shadow = &shadows[t];
      fill.Add(c);
    }
    fill.Run();
    sim.Run();
    r.failed += fill.failed();
    r.attempted += fill.completed();
  }
  r.setup_s = clock.Lap();

  ClosedLoop loop(&sim, &token, /*record_latency=*/true);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    Client c;
    c.device = tenants[t];
    c.queue_depth = 8;
    c.quota = ops / kTenants;
    c.sequential = t == kTenants - 1;  // the merge-path tenant
    c.lba_count = per_tenant;
    c.seed = SubSeed(p.seed, 10 + t);
    c.shadow = &shadows[t];
    loop.Add(c);
  }
  auto merges = [&layer, &bl] {
    std::uint64_t m = 0;
    for (std::uint32_t q = 0; q < bl.nr_queues; ++q) {
      m += layer.scheduler(q).counters().Get("back_merges");
    }
    return m;
  };
  const std::uint64_t merges0 = merges();
  const DeviceCounts before = DeviceCounts::Of(&dev);
  tracer.set_enabled(p.traced);
  TimedPhase phase(&sim, p.traced, &clock);
  loop.Run();
  phase.Finish(&r);
  tracer.set_enabled(false);

  r.ops = loop.completed();
  r.attempted += r.ops;
  r.failed += loop.failed();
  const SimTime sim_ns = sim.Now() - phase.sim_start();
  r.sim_ops_per_s = static_cast<double>(r.ops) * 1e9 / sim_ns;
  // The timed phase writes nothing: this is the fill's amplification.
  r.write_amp = dev.WriteAmplification();
  std::uint64_t rejected = 0;
  std::vector<double> p99s;
  Digest d;
  d.Add(sim.Now()).Add(r.ops).Add(r.failed).Add(r.write_amp);
  DigestDevice(dev, &d);
  d.Add(layer.counters()).Add(layer.latency()).Add(backend.counters());
  for (const pb::vbd::Frontend* fe : tenants) {
    const pb::vbd::TenantStats& s = fe->stats();
    rejected += s.rejected_bounds + s.rejected_quota + s.rejected_state;
    p99s.push_back(static_cast<double>(s.read_latency.P99()));
    d.Add(s.read_latency).Add(s.completed);
  }
  r.failed += rejected;
  DigestLatencies(loop.latencies(), &d);
  SetLatency(&r, &loop.latencies());
  d.Add(r.sim_lat_us_p50).Add(r.sim_lat_us_p99);
  r.digest = d.Hex();

  if (p.traced) {
    AddStageTotals(tracer.breakdown(), r.ops, &r);
    AddSpanTotals(r.ops, &r);
    DeviceCounts::Of(&dev).Minus(before).AddTo(r.ops, &r);
    r.layer["blocklayer.cpu_util"] = layer.CpuUtilization();
    r.layer["blocklayer.merges"] = static_cast<double>(merges() - merges0);
    const auto [lo, hi] = std::minmax_element(p99s.begin(), p99s.end());
    r.layer["vbd.tenant_read_p99_spread"] = *lo > 0 ? *hi / *lo : 0;
    r.layer["vbd.rejected"] = static_cast<double>(rejected);
  }
  return r;
}

// --- db_txn -------------------------------------------------------------------

// E22's script: ~28k keys bulk-loaded into a ~220-page B+-tree that
// fits the 256-frame buffer pool, then uniform-key churn with 15%
// deletes and a checkpoint every 60 txns, run far longer than E22's
// 3000 commits.
constexpr std::uint64_t kBulkKeys = 28'000;
constexpr int kBulkBatch = 100;
constexpr int kCheckpointEvery = 60;
constexpr double kDeleteFraction = 0.15;
constexpr std::uint64_t kVerifyKeys = 1'000;

pb::ssd::Config CrossoverSsd(bool vision, pb::trace::Tracer* tracer) {
  pb::ssd::Config c = pb::ssd::Config::Small();
  // 1024 pages, twice E22's 512: on the 512-page device a long vision
  // churn can stop making progress (seed 13 stalls after ~47k txns).
  c.geometry.blocks_per_plane = 16;
  if (vision) c.ftl = pb::ssd::FtlKind::kVisionAppend;
  c.tracer = tracer;
  return c;
}

struct WiringRun {
  double setup_s = 0;
  double timed_s = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t txns = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  SimTime sim_ns = 0;
  std::vector<std::uint64_t> lat_ns;     // client wait per txn
  std::vector<std::uint64_t> commit_ns;  // commit alone per txn
  DeviceCounts counts;
  double bp_hit_rate = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t host_map_bytes = 0;
  std::uint64_t device_map_bytes = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t run_ns = 0;
  std::vector<std::uint64_t> checkpoint_ns;
  pb::trace::LatencyBreakdown breakdown;
  std::string digest;
};

WiringRun RunWiring(pb::db::Wiring wiring, std::uint64_t txns,
                    const RepParams& p) {
  const bool vision = wiring == pb::db::Wiring::kVision;
  WiringRun w;
  pb::trace::Tracer tracer;
  ScaledCpuClock clock;
  pb::sim::Simulator sim;
  pb::trace::Tracer* tr = p.traced ? &tracer : nullptr;
  pb::ssd::Device dev(&sim, CrossoverSsd(vision, tr));
  pb::db::StorageConfig cfg;
  cfg.wiring = wiring;
  cfg.buffer_frames = 256;
  cfg.block_layer.tracer = tr;  // classic data path
  pb::db::StorageManager db(&sim, &dev, cfg);
  // Runs one asynchronous call to completion; false on a failed status.
  auto sync = [&](auto&& start) {
    bool fired = false;
    pb::Status out = pb::Status::Internal("pending");
    start([&](pb::Status st) {
      out = std::move(st);
      fired = true;
    });
    return RunUntil(&sim, [&] { return fired; }) && out.ok();
  };
  using Cb = pb::db::StorageManager::StatusCb;
  if (!sync([&](Cb cb) { db.Bootstrap(std::move(cb)); })) ++w.failed;
  std::vector<std::uint64_t> shadow(kBulkKeys, 0);  // 0 = absent
  pb::Rng load_rng(SubSeed(p.seed, 20));
  for (std::uint64_t base = 0; base < kBulkKeys; base += kBulkBatch) {
    std::vector<pb::db::WalOp> ops;
    for (int j = 0; j < kBulkBatch; ++j) {
      const std::uint64_t v = load_rng.Next() | 1;
      ops.push_back({pb::db::WalOp::Kind::kPut, base + j, v});
      shadow[base + j] = v;
    }
    if (!sync([&](Cb cb) { db.CommitBatch(std::move(ops), std::move(cb)); })) {
      ++w.failed;
    }
  }
  if (!sync([&](Cb cb) { db.Checkpoint(std::move(cb)); })) ++w.failed;
  w.setup_s = clock.Lap();

  const DeviceCounts before = DeviceCounts::Of(&dev);
  const pb::Counters& bp = db.buffer_pool()->counters();
  const std::uint64_t hits0 = bp.Get("hits");
  const std::uint64_t misses0 = bp.Get("misses");
  const std::uint64_t wal0 = db.store()->counters().Get("sync_bytes");
  w.lat_ns.reserve(txns);
  w.commit_ns.reserve(txns);
  pb::Rng rng(SubSeed(p.seed, 21));
  tracer.set_enabled(p.traced);
  RepResult timed;
  {
    TimedPhase phase(&sim, p.traced, &clock);
    for (std::uint64_t i = 0; i < txns; ++i) {
      const std::uint64_t k = rng.Uniform(kBulkKeys);
      const bool del = rng.Bernoulli(kDeleteFraction);
      const std::uint64_t v = del ? 0 : (rng.Next() | 1);
      const SimTime start = sim.Now();
      const bool ok = sync([&](Cb cb) {
        ScopedSpan span(SpanKind::kDbTxn);
        if (del) {
          db.Delete(k, std::move(cb));
        } else {
          db.Put(k, v, std::move(cb));
        }
      });
      w.commit_ns.push_back(sim.Now() - start);
      if (ok) {
        shadow[k] = v;
      } else {
        ++w.failed;
      }
      if (i % kCheckpointEvery == kCheckpointEvery - 1) {
        ScopedSpan span(SpanKind::kCheckpoint);
        if (!sync([&](Cb cb) { db.Checkpoint(std::move(cb)); })) ++w.failed;
      }
      // What the closed-loop client waits before its next txn: the
      // commit, plus the checkpoint every 60th txn triggers.
      w.lat_ns.push_back(sim.Now() - start);
    }
    w.sim_ns = sim.Now() - phase.sim_start();
    phase.Finish(&timed);
    w.submit_ns = Spans().total_ns(SpanKind::kDbTxn);
    w.run_ns = Spans().total_ns(SpanKind::kRun);
    w.checkpoint_ns = Spans().Durations(SpanKind::kCheckpoint);
  }
  tracer.set_enabled(false);
  w.breakdown = tracer.breakdown();
  w.timed_s = timed.timed_s;
  w.cpu_s = timed.cpu_s;
  w.events = timed.events;
  w.allocs = timed.allocs;
  w.txns = txns;
  w.counts = DeviceCounts::Of(&dev).Minus(before);
  const std::uint64_t hits = bp.Get("hits") - hits0;
  const std::uint64_t misses = bp.Get("misses") - misses0;
  w.bp_hit_rate = hits + misses == 0 ? 0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(hits + misses);
  w.wal_bytes = db.store()->counters().Get("sync_bytes") - wal0;
  w.host_map_bytes = db.host_map() != nullptr ? db.host_map()->MappingBytes() : 0;
  w.device_map_bytes = dev.Caps().mapping_table_bytes;

  // Read back a seeded sample of keys against the shadow.
  pb::Rng verify(SubSeed(p.seed, 22));
  for (std::uint64_t i = 0; i < kVerifyKeys; ++i) {
    const std::uint64_t k = verify.Uniform(kBulkKeys);
    bool fired = false;
    bool match = false;
    db.Get(k, [&](pb::StatusOr<std::uint64_t> got) {
      fired = true;
      match = got.ok() ? got.value() == shadow[k]
                       : got.status().code() == pb::StatusCode::kNotFound &&
                             shadow[k] == 0;
    });
    RunUntil(&sim, [&] { return fired; });
    ++w.checks;
    if (!match) ++w.failed;
  }

  Digest d;
  d.Add(sim.Now()).Add(w.txns).Add(w.failed).Add(w.counts.WriteAmp());
  DigestDevice(dev, &d);
  d.Add(db.counters()).Add(db.commit_latency()).Add(bp);
  d.Add(w.host_map_bytes).Add(w.device_map_bytes);
  DigestLatencies(w.lat_ns, &d);
  w.digest = d.Hex();
  return w;
}

RepResult DbTxn(const RepParams& p) {
  const std::uint64_t txns = TimedOps(kDbTxns, p);
  WiringRun classic = RunWiring(pb::db::Wiring::kClassic, txns, p);
  WiringRun vision = RunWiring(pb::db::Wiring::kVision, txns, p);

  RepResult r;
  r.setup_s = classic.setup_s + vision.setup_s;
  r.timed_s = classic.timed_s + vision.timed_s;
  r.cpu_s = classic.cpu_s + vision.cpu_s;
  r.events = classic.events + vision.events;
  r.allocs = classic.allocs + vision.allocs;
  r.ops = classic.txns + vision.txns;
  r.attempted = r.ops + classic.checks + vision.checks;
  r.failed = classic.failed + vision.failed;
  // Sim-time end-to-end metrics are the vision wiring's.
  r.sim_ops_per_s = static_cast<double>(vision.txns) * 1e9 / vision.sim_ns;
  r.write_amp = vision.counts.WriteAmp();
  const double classic_commit_p99 =
      static_cast<double>(Percentile(&classic.commit_ns, 99)) / 1e3;
  const double vision_commit_p99 =
      static_cast<double>(Percentile(&vision.commit_ns, 99)) / 1e3;
  SetLatency(&r, &vision.lat_ns);
  r.digest = Digest()
                 .Add(classic.digest)
                 .Add(vision.digest)
                 .Add(r.sim_lat_us_p50)
                 .Add(r.sim_lat_us_p99)
                 .Hex();

  if (p.traced) {
    const double n = static_cast<double>(vision.txns);
    // The vision device's nameless path records no stage spans; the
    // classic wiring's block path does.
    AddStageTotals(classic.breakdown, classic.txns, &r);
    r.layer["submit.ns_per_op"] =
        static_cast<double>(classic.submit_ns + vision.submit_ns) / r.ops;
    r.layer["run.ns_per_op"] =
        static_cast<double>(classic.run_ns + vision.run_ns) / r.ops;
    std::vector<double> ckpt_ms;
    for (auto v : classic.checkpoint_ns) ckpt_ms.push_back(v / 1e6);
    for (auto v : vision.checkpoint_ns) ckpt_ms.push_back(v / 1e6);
    r.layer["db.checkpoint_wall_ms_p50"] = Median(ckpt_ms);
    // FTL/flash counts are the classic wiring's: it is the side with a
    // device FTL that garbage-collects.
    classic.counts.AddTo(classic.txns, &r);
    r.layer["db.classic.commit_us_p99"] = classic_commit_p99;
    r.layer["db.vision.commit_us_p99"] = vision_commit_p99;
    r.layer["ftl.classic.write_amp"] = classic.counts.WriteAmp();
    r.layer["db.bp_hit_rate"] = vision.bp_hit_rate;
    r.layer["db.wal_bytes_per_txn"] =
        static_cast<double>(vision.wal_bytes) / n;
    r.layer["db.vision.host_map_bytes"] =
        static_cast<double>(vision.host_map_bytes);
    r.layer["db.classic.device_map_bytes"] =
        static_cast<double>(classic.device_map_bytes);
  }
  return r;
}

// --- sharded_mix --------------------------------------------------------------

pb::ssd::Config ShardedConfig() {
  pb::ssd::Config c;
  c.geometry.channels = 4;
  c.geometry.luns_per_channel = 4;
  c.geometry.planes_per_lun = 1;
  c.geometry.blocks_per_plane = 64;
  c.geometry.pages_per_block = 32;
  c.geometry.page_size_bytes = 4096;
  return c;
}

std::uint32_t ShardedWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::uint32_t>(4, hw == 0 ? 1 : hw);
}

pb::ssd::ShardedDeviceRun ShardedRun(std::uint32_t workers, std::uint64_t ios,
                                     std::uint64_t seed) {
  pb::ssd::ShardedDeviceRun run;
  run.workers = workers;
  run.queue_depth = 32;
  run.total_ios = ios;
  run.write_percent = 40;
  run.fill_fraction = 0.7;
  run.seed = seed;
  return run;
}

/// Percentile p of a log-bucketed histogram, averaged over the
/// quantile function from p - 0.5 to p + 0.5 points. One Percentile()
/// is a bucket midpoint (buckets are ~3% wide), which stays put while
/// the data moves inside the bucket; the band average follows it.
double BandPercentile(const pb::Histogram& h, double p) {
  constexpr int kSteps = 1000;
  double sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    sum += static_cast<double>(h.Percentile(p - 0.5 + (i + 0.5) / kSteps));
  }
  return sum / kSteps;
}

RepResult ShardedMix(const RepParams& p) {
  RepResult r;
  const std::uint64_t ios = TimedOps(kShardedIos, p);
  const std::uint64_t seed = SubSeed(p.seed, 30);
  ScaledCpuClock clock;
  {
    // Set-up cost: the 70% sequential fill runs inside Run(), so it is
    // measured on its own instance with an empty main phase.
    pb::ssd::ShardedDeviceSim fill(ShardedConfig(), ShardedRun(0, 0, seed));
    fill.Run();
    r.failed += fill.io_errors();
  }
  // The timed instance runs the engine's sequential reference loop
  // (workers = 0): spinning worker threads are not steady on a shared
  // host. The traced run measures the parallel engine against it.
  pb::ssd::ShardedDeviceSim sim(ShardedConfig(), ShardedRun(0, ios, seed));
  r.setup_s = clock.Lap();

  if (p.traced) Spans().Start(16);
  const std::uint64_t a0 = AllocCount();
  const std::uint64_t w0 = WallNs();
  clock.Restart();
  SimTime end = 0;
  {
    ScopedSpan span(SpanKind::kShardedRun);
    end = sim.Run();
  }
  r.timed_s = static_cast<double>(WallNs() - w0) / 1e9;
  r.allocs = AllocCount() - a0;
  r.cpu_s = clock.Lap();
  Spans().Stop();
  const std::uint64_t sharded_run_ns = Spans().total_ns(SpanKind::kShardedRun);

  pb::ssd::Device* dev = sim.device();
  r.events = sim.engine()->events_executed();
  r.ops = sim.ios_completed();  // fill + main phase: one Run() drives both
  r.attempted = r.ops;
  r.failed += sim.io_errors();
  r.sim_ops_per_s = static_cast<double>(r.ops) * 1e9 / end;
  r.write_amp = dev->WriteAmplification();
  pb::Histogram lat = dev->read_latency();
  lat.Merge(dev->write_latency());
  // Histograms only: the mean is exact, the percentiles are band
  // averages (see BandPercentile).
  r.lat_samples = lat.count();
  r.sim_lat_us_mean = lat.Mean() / 1e3;
  r.sim_lat_us_p50 = BandPercentile(lat, 50) / 1e3;
  r.sim_lat_us_p99 = BandPercentile(lat, 99) / 1e3;
  r.digest = Digest()
                 .Add(sim.ModelFingerprint())
                 .Add(sim.CombinedFingerprint())
                 .Add(r.events)
                 .Add(static_cast<std::uint64_t>(end))
                 .Hex();

  if (p.traced) {
    // The parallel engine on the same script: it must commit the same
    // schedule, and its wall time against workers = 0 is the speed-up.
    pb::ssd::ShardedDeviceSim par(ShardedConfig(),
                                  ShardedRun(ShardedWorkers(), ios, seed));
    const std::uint64_t w0 = WallNs();
    par.Run();
    const double par_s = static_cast<double>(WallNs() - w0) / 1e9;
    if (par.CombinedFingerprint() != sim.CombinedFingerprint()) ++r.failed;
    const double n = static_cast<double>(r.ops);
    r.layer["submit.ns_per_op"] = 0;  // Submit runs inside the engine
    r.layer["run.ns_per_op"] = static_cast<double>(sharded_run_ns) / n;
    DeviceCounts::Of(dev).AddTo(r.ops, &r);
    const pb::sim::ShardedEngine* pe = par.engine();
    r.layer["sharded.events_per_round"] =
        static_cast<double>(pe->events_executed()) / pe->rounds();
    r.layer["sharded.seam_msgs_per_op"] =
        static_cast<double>(pe->messages_delivered()) / n;
    r.layer["sharded.rounds"] = static_cast<double>(pe->rounds());
    r.layer["sharded.speedup_vs_w0"] = r.timed_s / par_s;
  }
  return r;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"aged_mix", AgedMix},
      {"mq_read", MqRead},
      {"db_txn", DbTxn},
      {"sharded_mix", ShardedMix},
  };
  return kAll;
}

}  // namespace perfbench
