// Multi-tenant virtual block devices: pass-through neutrality, bounds
// and quota enforcement (typed statuses), thin-read zero-fill, tenant
// lifecycle under live traffic (destroy/disconnect/reconnect with
// drain and cancel), destroy-then-recreate with no stale data, DRR QoS
// sharing, 256-tenant run-twice determinism, per-tenant trace tracks
// through the Chrome exporter round trip, and a Backend on the sharded
// ssd::Device's controller shard (DRR weights honoured, schedule
// identical at every worker count).
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "blocklayer/simple_device.h"
#include "metrics/metrics.h"
#include "sim/simulator.h"
#include "ssd/sharded_device.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "vbd/backend.h"
#include "vbd/frontend.h"
#include "vbd/vbd.h"
#include "workload/multi_tenant.h"
#include "workload/patterns.h"

namespace postblock::vbd {
namespace {

using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;
using blocklayer::SimpleBlockDevice;
using blocklayer::SimpleDeviceConfig;

SimpleDeviceConfig SmallDevice(std::uint64_t blocks = 4096) {
  SimpleDeviceConfig c;
  c.num_blocks = blocks;
  c.read_ns = 10 * kMicrosecond;
  c.write_ns = 20 * kMicrosecond;
  c.units = 8;
  return c;
}

TenantConfig TC(std::uint64_t capacity, std::uint64_t quota = 0,
                std::uint32_t weight = 1, std::string name = "") {
  TenantConfig c;
  c.name = std::move(name);
  c.capacity_blocks = capacity;
  c.quota_blocks = quota;
  c.qos_weight = weight;
  return c;
}

/// One (completion time, io id) pair per IO, in completion order.
using Schedule = std::vector<std::pair<SimTime, std::uint64_t>>;

/// Sequential write pass over [0, blocks) then `reads` random-ish reads,
/// closed loop at `depth`, against an arbitrary BlockDevice. Returns
/// the exact completion schedule.
Schedule RunSchedule(sim::Simulator* sim, blocklayer::BlockDevice* dev,
                     std::uint64_t blocks, std::uint64_t reads,
                     std::uint32_t depth) {
  Schedule sched;
  const std::uint64_t ops = blocks + reads;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::function<void()> issue = [&] {
    while (issued < ops && issued - completed < depth) {
      IoRequest r;
      const std::uint64_t id = issued++;
      if (id < blocks) {
        r.op = IoOp::kWrite;
        r.lba = id;
        r.tokens = {id * 1000003ull + 1};
      } else {
        r.op = IoOp::kRead;
        r.lba = (id * 37) % blocks;
      }
      r.nblocks = 1;
      r.on_complete = [&, id](const IoResult& res) {
        EXPECT_TRUE(res.status.ok()) << res.status;
        ++completed;
        sched.emplace_back(sim->Now(), id);
        issue();
      };
      dev->Submit(std::move(r));
    }
  };
  issue();
  sim->Run();
  EXPECT_EQ(completed, ops);
  return sched;
}

/// Submits one op synchronously and runs the sim until it completes.
IoResult RunOne(sim::Simulator* sim, blocklayer::BlockDevice* dev, IoOp op,
                Lba lba, std::uint32_t nblocks, Tokens tokens = {}) {
  IoResult out;
  bool done = false;
  IoRequest r;
  r.op = op;
  r.lba = lba;
  r.nblocks = nblocks;
  r.tokens = std::move(tokens);
  r.on_complete = [&](const IoResult& res) {
    out.status = res.status;
    out.tokens = res.tokens;
    done = true;
  };
  dev->Submit(std::move(r));
  sim->RunUntilPredicate([&] { return done; });
  EXPECT_TRUE(done);
  return out;
}

// --- Neutrality -------------------------------------------------------

TEST(VbdNeutrality, PassThroughTenantScheduleIsByteIdentical) {
  const std::uint64_t kBlocks = 1024;
  Schedule raw;
  {
    sim::Simulator sim;
    SimpleBlockDevice dev(&sim, SmallDevice(kBlocks));
    raw = RunSchedule(&sim, &dev, kBlocks, 2000, 8);
  }
  Schedule tenant;
  {
    sim::Simulator sim;
    SimpleBlockDevice dev(&sim, SmallDevice(kBlocks));
    Backend backend(&sim, &dev, BackendConfig{});
    auto fe = backend.CreateTenant(
        TC(kBlocks, 0, 1, "whole"));
    ASSERT_TRUE(fe.ok()) << fe.status();
    EXPECT_EQ(backend.extent_base(fe.value()->id()), 0u);
    tenant = RunSchedule(&sim, fe.value(), kBlocks, 2000, 8);
  }
  ASSERT_EQ(raw.size(), tenant.size());
  EXPECT_EQ(raw, tenant);
}

// --- Bounds, quota, thin reads ---------------------------------------

TEST(VbdIsolation, OutOfNamespaceLbaRejectedTyped) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  Backend backend(&sim, &dev, BackendConfig{});
  auto a = backend.CreateTenant(TC(100));
  auto b = backend.CreateTenant(TC(100));
  ASSERT_TRUE(a.ok() && b.ok());
  // Tenant B occupies [100, 200) on the lower device; tenant A may
  // never reach it.
  EXPECT_EQ(backend.extent_base(b.value()->id()), 100u);
  const std::uint64_t before = dev.counters().Get("requests");

  EXPECT_EQ(RunOne(&sim, a.value(), IoOp::kRead, 100, 1).status.code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(RunOne(&sim, a.value(), IoOp::kWrite, 99, 2, {1, 2})
                .status.code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(RunOne(&sim, a.value(), IoOp::kRead, ~0ull, 1).status.code(),
            StatusCode::kOutOfRange);
  // Rejections never touched the lower device, but did advance time
  // (the configured rejection latency) and were counted.
  EXPECT_EQ(dev.counters().Get("requests"), before);
  EXPECT_EQ(a.value()->stats().rejected_bounds, 3u);
  EXPECT_EQ(a.value()->stats().errors, 0u);
}

TEST(VbdQuota, ExhaustionIsTypedAndTrimRefunds) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  Backend backend(&sim, &dev, BackendConfig{});
  auto fe_or = backend.CreateTenant(
      TC(100, 10));
  ASSERT_TRUE(fe_or.ok());
  Frontend* fe = fe_or.value();

  for (Lba l = 0; l < 10; ++l) {
    EXPECT_TRUE(
        RunOne(&sim, fe, IoOp::kWrite, l, 1, {l + 1}).status.ok());
  }
  EXPECT_EQ(fe->quota_used(), 10u);
  // An 11th distinct LBA is a typed failure, not UB.
  EXPECT_EQ(RunOne(&sim, fe, IoOp::kWrite, 50, 1, {51}).status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(fe->stats().rejected_quota, 1u);
  // Overwriting an already-charged LBA still fits.
  EXPECT_TRUE(RunOne(&sim, fe, IoOp::kWrite, 3, 1, {333}).status.ok());
  EXPECT_EQ(fe->quota_used(), 10u);
  // A multi-block write that would only partially fit is rejected as a
  // whole — no partial allocation.
  EXPECT_EQ(
      RunOne(&sim, fe, IoOp::kWrite, 9, 2, {91, 92}).status.code(),
      StatusCode::kResourceExhausted);
  EXPECT_EQ(fe->quota_used(), 10u);
  // Trim refunds budget; the freed block can be re-provisioned.
  EXPECT_TRUE(RunOne(&sim, fe, IoOp::kTrim, 0, 2).status.ok());
  EXPECT_EQ(fe->quota_used(), 8u);
  EXPECT_TRUE(RunOne(&sim, fe, IoOp::kWrite, 50, 1, {51}).status.ok());
  EXPECT_EQ(fe->quota_used(), 9u);
}

TEST(VbdThin, UnwrittenReadsZeroFilledNeverTouchMedia) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  Backend backend(&sim, &dev, BackendConfig{});
  auto fe_or = backend.CreateTenant(TC(128));
  ASSERT_TRUE(fe_or.ok());
  Frontend* fe = fe_or.value();

  // Fully-unwritten read: served from the allocation map at the thin
  // latency, no lower-device request.
  const std::uint64_t before = dev.counters().Get("requests");
  const SimTime t0 = sim.Now();
  IoResult r = RunOne(&sim, fe, IoOp::kRead, 10, 4);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.tokens.size(), 4u);
  for (std::uint64_t tok : r.tokens) EXPECT_EQ(tok, 0u);
  EXPECT_EQ(dev.counters().Get("requests"), before);
  EXPECT_EQ(sim.Now() - t0, Backend::kThinReadLatencyNs);
  EXPECT_EQ(fe->stats().thin_reads, 1u);

  // Partially-written read: forwarded, unwritten blocks zero-filled.
  EXPECT_TRUE(RunOne(&sim, fe, IoOp::kWrite, 11, 1, {777}).status.ok());
  r = RunOne(&sim, fe, IoOp::kRead, 10, 3);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[0], 0u);
  EXPECT_EQ(r.tokens[1], 777u);
  EXPECT_EQ(r.tokens[2], 0u);
  EXPECT_EQ(fe->stats().zero_filled_blocks, 4u + 2u);
}

TEST(VbdQuota, WriteTheDeviceRefusesChargesNothing) {
  // A vision-append device takes no block writes. The tenant refuses
  // them Unimplemented before the backend checks the namespace, marks
  // an LBA written or charges quota: the device's refusal below would
  // refund none of it.
  sim::Simulator sim;
  ssd::Config c = ssd::Config::Small();
  c.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device dev(&sim, c);
  Backend backend(&sim, &dev, BackendConfig{});
  auto fe_or = backend.CreateTenant(TC(64));
  ASSERT_TRUE(fe_or.ok());
  Frontend* fe = fe_or.value();
  ASSERT_FALSE(fe->Supports(IoOp::kWrite));
  EXPECT_EQ(RunOne(&sim, fe, IoOp::kWrite, 0, 1, {1}).status.code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(RunOne(&sim, fe, IoOp::kWrite, 64, 1, {1}).status.code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(fe->quota_used(), 0u);
  EXPECT_EQ(fe->stats().blocks_written, 0u);
}

// --- Lifecycle --------------------------------------------------------

TEST(VbdLifecycle, DestroyUnderInflightIoDrainsAndCancels) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  BackendConfig cfg;
  cfg.shared_depth = 2;  // QoS gate on: extra submissions park
  Backend backend(&sim, &dev, cfg);
  auto fe_or = backend.CreateTenant(TC(256));
  ASSERT_TRUE(fe_or.ok());
  Frontend* fe = fe_or.value();

  std::uint64_t ok = 0, cancelled = 0;
  for (Lba l = 0; l < 6; ++l) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lba = l;
    r.nblocks = 1;
    r.tokens = {l + 1};
    r.on_complete = [&](const IoResult& res) {
      if (res.status.ok()) {
        ++ok;
      } else {
        EXPECT_EQ(res.status.code(), StatusCode::kUnavailable);
        ++cancelled;
      }
    };
    fe->Submit(std::move(r));
  }
  EXPECT_EQ(backend.tenant_inflight(fe->id()), 2u);
  EXPECT_EQ(backend.tenant_pending(fe->id()), 4u);

  bool destroyed = false;
  ASSERT_TRUE(backend
                  .DestroyTenant(fe->id(),
                                 [&](const IoResult& res) {
                                   EXPECT_TRUE(res.status.ok());
                                   // Every in-flight IO retired first.
                                   EXPECT_EQ(ok, 2u);
                                   destroyed = true;
                                 })
                  .ok());
  // Queued IO was cancelled synchronously with a typed status.
  EXPECT_EQ(cancelled, 4u);
  EXPECT_EQ(fe->state(), TenantState::kDraining);
  // Destroying a draining tenant is a typed precondition failure.
  EXPECT_TRUE(backend.DestroyTenant(fe->id()).IsFailedPrecondition());

  sim.Run();
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(fe->state(), TenantState::kDestroyed);
  EXPECT_EQ(backend.num_tenants(), 0u);
  EXPECT_EQ(backend.stale_completions(), 0u);
  EXPECT_EQ(backend.io_states_allocated(), backend.io_states_free());

  // The stale handle keeps its frozen record and rejects new IO.
  EXPECT_EQ(fe->stats().completed, 2u);
  EXPECT_EQ(fe->stats().cancelled, 4u);
  EXPECT_EQ(RunOne(&sim, fe, IoOp::kRead, 0, 1).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fe->stats().rejected_state, 1u);
}

TEST(VbdLifecycle, DestroyRecreateReusesNamespaceNoStaleData) {
  for (const bool trim_on_destroy : {true, false}) {
    sim::Simulator sim;
    SimpleBlockDevice dev(&sim, SmallDevice());
    BackendConfig cfg;
    cfg.trim_on_destroy = trim_on_destroy;
    Backend backend(&sim, &dev, cfg);

    auto a_or = backend.CreateTenant(TC(64));
    ASSERT_TRUE(a_or.ok());
    Frontend* a = a_or.value();
    const std::uint64_t base_a = backend.extent_base(a->id());
    for (Lba l = 0; l < 64; ++l) {
      ASSERT_TRUE(
          RunOne(&sim, a, IoOp::kWrite, l, 1, {l + 100}).status.ok());
    }
    ASSERT_TRUE(backend.DestroyTenant(a->id()).ok());
    sim.Run();
    ASSERT_EQ(a->state(), TenantState::kDestroyed);

    // The recreated tenant reuses the same extent and slot...
    auto b_or = backend.CreateTenant(TC(64));
    ASSERT_TRUE(b_or.ok());
    Frontend* b = b_or.value();
    EXPECT_EQ(b->id(), a->id());
    EXPECT_EQ(backend.extent_base(b->id()), base_a);
    EXPECT_NE(b->epoch(), a->epoch());

    // ...but none of its predecessor's data is visible, trimmed or not.
    for (Lba l = 0; l < 64; l += 7) {
      IoResult r = RunOne(&sim, b, IoOp::kRead, l, 1);
      ASSERT_TRUE(r.status.ok());
      ASSERT_EQ(r.tokens.size(), 1u);
      EXPECT_EQ(r.tokens[0], 0u) << "stale data at lba " << l
                                 << " trim=" << trim_on_destroy;
    }
    // With trim enabled the media itself was wiped, too.
    if (trim_on_destroy) {
      EXPECT_GT(dev.counters().Get("blocks_trimmed"), 0u);
    }
    // Writes land fresh; a partial read mixes new data with zeros.
    ASSERT_TRUE(RunOne(&sim, b, IoOp::kWrite, 1, 1, {42}).status.ok());
    IoResult r = RunOne(&sim, b, IoOp::kRead, 0, 3);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.tokens[0], 0u);
    EXPECT_EQ(r.tokens[1], 42u);
    EXPECT_EQ(r.tokens[2], 0u);
  }
}

TEST(VbdLifecycle, DisconnectRetainsDataReconnectResumes) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  Backend backend(&sim, &dev, BackendConfig{});
  auto fe_or = backend.CreateTenant(TC(64));
  ASSERT_TRUE(fe_or.ok());
  Frontend* fe = fe_or.value();
  ASSERT_TRUE(RunOne(&sim, fe, IoOp::kWrite, 5, 1, {55}).status.ok());

  bool drained = false;
  ASSERT_TRUE(
      backend.Disconnect(fe->id(), [&](const IoResult&) { drained = true; })
          .ok());
  sim.Run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(fe->state(), TenantState::kDisconnected);
  EXPECT_EQ(backend.num_tenants(), 1u);

  // Disconnected tenants reject IO but keep their namespace and data.
  EXPECT_EQ(RunOne(&sim, fe, IoOp::kRead, 5, 1).status.code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(backend.Connect(fe->id()).ok());
  EXPECT_EQ(fe->state(), TenantState::kConnected);
  IoResult r = RunOne(&sim, fe, IoOp::kRead, 5, 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.tokens[0], 55u);
  EXPECT_EQ(fe->quota_used(), 1u);
}

// --- QoS --------------------------------------------------------------

TEST(VbdQos, DrrSharesDeviceSlotsByWeight) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  BackendConfig cfg;
  cfg.shared_depth = 4;
  Backend backend(&sim, &dev, cfg);
  auto heavy_or = backend.CreateTenant(
      TC(512, 0, 3));
  auto light_or = backend.CreateTenant(
      TC(512, 0, 1));
  ASSERT_TRUE(heavy_or.ok() && light_or.ok());

  // Writes: reads of a never-written namespace are thin-served locally
  // and would bypass the shared-depth gate altogether.
  workload::RandomPattern heavy_pat(0, 512, /*is_write=*/true, 1, 21);
  workload::RandomPattern light_pat(0, 512, /*is_write=*/true, 1, 22);
  std::vector<workload::TenantLoad> loads(2);
  loads[0] = {heavy_or.value(), &heavy_pat, /*ops=*/600,
              /*queue_depth=*/16, 0};
  loads[1] = {light_or.value(), &light_pat, /*ops=*/0,
              /*queue_depth=*/16, 0};
  workload::MixResult mix = workload::RunMultiTenantMix(&sim, loads);

  // While both stayed backlogged, DRR hands out 3 slots to the heavy
  // tenant per 1 to the light one.
  const double ratio =
      static_cast<double>(mix.tenants[0].completed) /
      static_cast<double>(mix.tenants[1].completed);
  EXPECT_GT(ratio, 2.5) << "heavy=" << mix.tenants[0].completed
                        << " light=" << mix.tenants[1].completed;
  EXPECT_LT(ratio, 3.6);
}

// --- Scale + determinism ---------------------------------------------

/// Creates `n` tenants, runs a mixed read/write load over all of them
/// concurrently, destroys every tenant, and digests the full run.
std::uint64_t RunManyTenantsOnce(std::uint32_t n) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice(/*blocks=*/n * 64));
  BackendConfig cfg;
  cfg.shared_depth = 64;
  Backend backend(&sim, &dev, cfg);

  std::vector<Frontend*> fes;
  std::vector<std::unique_ptr<workload::Pattern>> patterns;
  std::vector<workload::TenantLoad> loads;
  for (std::uint32_t t = 0; t < n; ++t) {
    auto fe = backend.CreateTenant(TC(64, 0, 1 + t % 4));
    EXPECT_TRUE(fe.ok());
    fes.push_back(fe.value());
    patterns.push_back(std::make_unique<workload::RandomPattern>(
        0, 64, /*is_write=*/t % 2 == 0, 1, /*seed=*/1000 + t));
    loads.push_back({fe.value(), patterns.back().get(), /*ops=*/20,
                     /*queue_depth=*/2, /*think_ns=*/0});
  }
  workload::MixResult mix = workload::RunMultiTenantMix(&sim, loads);
  std::uint64_t digest = mix.digest;

  std::uint32_t destroyed = 0;
  for (Frontend* fe : fes) {
    EXPECT_TRUE(backend
                    .DestroyTenant(fe->id(),
                                   [&](const IoResult&) { ++destroyed; })
                    .ok());
  }
  sim.Run();
  EXPECT_EQ(destroyed, n);
  EXPECT_EQ(backend.num_tenants(), 0u);
  EXPECT_EQ(backend.stale_completions(), 0u);
  EXPECT_EQ(backend.io_states_allocated(), backend.io_states_free());

  // Fold the teardown into the digest: destroy completion time plus
  // every tenant's frozen stats.
  digest ^= sim.Now() * 0x9e3779b97f4a7c15ull;
  for (const Frontend* fe : fes) {
    digest = digest * 1099511628211ull ^ fe->stats().completed;
    digest = digest * 1099511628211ull ^ fe->stats().blocks_written;
  }
  return digest;
}

TEST(VbdScale, Tenants256CreateRunDestroyRunTwiceIdentical) {
  const std::uint64_t first = RunManyTenantsOnce(256);
  const std::uint64_t second = RunManyTenantsOnce(256);
  EXPECT_EQ(first, second);
}

// --- Per-tenant observability ----------------------------------------

TEST(VbdObservability, PerTenantMetricsRegisteredAndRecorded) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  metrics::MetricRegistry registry;
  BackendConfig cfg;
  cfg.metrics = &registry;
  Backend backend(&sim, &dev, cfg);
  TenantConfig tc = TC(64, 0, 1, "db");
  tc.register_metrics = true;
  auto fe_or = backend.CreateTenant(tc);
  ASSERT_TRUE(fe_or.ok());
  ASSERT_TRUE(registry.Has("vbd.db.read_lat_ns"));
  ASSERT_TRUE(registry.Has("vbd.db.write_lat_ns"));
  ASSERT_TRUE(registry.Has("vbd.submitted"));

  ASSERT_TRUE(
      RunOne(&sim, fe_or.value(), IoOp::kWrite, 0, 1, {1}).status.ok());
  ASSERT_TRUE(RunOne(&sim, fe_or.value(), IoOp::kRead, 0, 1).status.ok());
  EXPECT_EQ(registry.CounterByName("vbd.submitted"), 2u);
  EXPECT_EQ(registry.CounterByName("vbd.completed"), 2u);
  // Both latency windows saw exactly one sample.
  bool found_read = false;
  for (metrics::Id id = 0; id < registry.num_histograms(); ++id) {
    if (registry.hist_name(id) == "vbd.db.read_lat_ns") {
      EXPECT_EQ(registry.hist_total(id), 1u);
      found_read = true;
    }
  }
  EXPECT_TRUE(found_read);
}

TEST(VbdObservability, TenantTraceTracksRoundTripThroughExporter) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SmallDevice());
  trace::Tracer tracer(1 << 12);
  tracer.set_enabled(true);
  BackendConfig cfg;
  cfg.tracer = &tracer;
  Backend backend(&sim, &dev, cfg);
  auto a = backend.CreateTenant(TC(64, 0, 1, "alice"));
  auto b = backend.CreateTenant(TC(64, 0, 1, "bob"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(RunOne(&sim, a.value(), IoOp::kWrite, 0, 1, {1}).status.ok());
  ASSERT_TRUE(RunOne(&sim, b.value(), IoOp::kWrite, 0, 1, {2}).status.ok());
  ASSERT_TRUE(RunOne(&sim, a.value(), IoOp::kRead, 0, 1).status.ok());

  // Write through the file exporter (per-PID artifact: ctest -j safe)
  // and re-parse its own output.
  const std::string path = ::testing::TempDir() + "/vbd_test." +
                           std::to_string(::getpid()) + ".trace.json";
  ASSERT_TRUE(trace::WriteChromeTrace(tracer, path).ok());
  std::string json = trace::ToChromeJson(tracer);
  std::vector<trace::ParsedEvent> events;
  ASSERT_TRUE(trace::ParseChromeTrace(json, &events));

  // Each tenant is its own Perfetto process group, named tenant-<slot>,
  // with the tenant's name as the thread label.
  bool alice_process = false, bob_process = false, alice_thread = false;
  std::uint64_t alice_spans = 0, bob_spans = 0;
  const std::uint64_t pid_a = trace::kPidTenantBase + a.value()->id();
  const std::uint64_t pid_b = trace::kPidTenantBase + b.value()->id();
  for (const trace::ParsedEvent& e : events) {
    if (e.ph == 'M' && e.name == "process_name") {
      if (e.pid == pid_a && e.meta_name == "tenant-0") alice_process = true;
      if (e.pid == pid_b && e.meta_name == "tenant-1") bob_process = true;
    }
    if (e.ph == 'M' && e.name == "thread_name" && e.pid == pid_a &&
        e.meta_name == "alice") {
      alice_thread = true;
    }
    if (e.ph == 'X' && e.name == "io") {
      if (e.pid == pid_a) ++alice_spans;
      if (e.pid == pid_b) ++bob_spans;
    }
  }
  EXPECT_TRUE(alice_process);
  EXPECT_TRUE(bob_process);
  EXPECT_TRUE(alice_thread);
  EXPECT_EQ(alice_spans, 2u);
  EXPECT_EQ(bob_spans, 1u);
}

// --- A Backend on the sharded device -----------------------------------

// A real Backend sits on the sharded device's controller shard, next to
// the firmware it submits to, and drives one closed loop per tenant
// from there while GC and channel timing run on the channel shards. Its
// DRR arbiter must favour the weight-3 tenant, and the committed
// schedule must not depend on the worker count.
TEST(VbdSharded, MultiTenantAttributionDeterministicAcrossWorkers) {
  constexpr std::uint32_t kWeights[] = {3, 1, 1};
  constexpr std::uint64_t kOps = 300;  // writes per tenant
  constexpr std::uint32_t kDepth = 8;  // closed-loop depth per tenant
  ssd::Config device;
  device.geometry.channels = 4;
  device.geometry.luns_per_channel = 2;
  device.geometry.planes_per_lun = 1;
  device.geometry.blocks_per_plane = 24;
  device.geometry.pages_per_block = 16;
  device.geometry.page_size_bytes = 4096;

  struct Loop {
    Frontend* fe = nullptr;
    std::uint64_t issued = 0;
    std::uint64_t done = 0;
  };
  auto run = [&](std::uint32_t workers) {
    ssd::ShardedDeviceRun rc;
    rc.workers = workers;
    rc.total_ios = 0;  // the harness only preconditions; tenants drive
    ssd::ShardedDeviceSim sharded(device, rc);
    sim::Simulator* ctrl =
        sharded.engine()->shard(sharded.plan().controller_shard);
    BackendConfig cfg;
    cfg.shared_depth = 8;
    Backend backend(ctrl, sharded.device(), cfg);
    const std::uint64_t extent = sharded.device()->num_blocks() / 4;
    std::vector<Loop> loops(std::size(kWeights));
    for (std::size_t t = 0; t < loops.size(); ++t) {
      auto fe = backend.CreateTenant(TC(extent, 0, kWeights[t]));
      EXPECT_TRUE(fe.ok()) << fe.status();
      if (!fe.ok()) return std::uint64_t{0};
      loops[t].fe = fe.value();
    }
    std::function<void(Loop&)> issue = [&](Loop& l) {
      while (l.issued < kOps && l.issued - l.done < kDepth) {
        IoRequest r;
        r.op = IoOp::kWrite;
        r.lba = l.issued * 7919 % extent;
        r.nblocks = 1;
        r.tokens = {++l.issued};
        r.on_complete = [&issue, &l](const IoResult&) {
          ++l.done;
          issue(l);
        };
        l.fe->Submit(std::move(r));
      }
    };
    ctrl->Schedule(0, [&] {
      for (Loop& l : loops) issue(l);
    });
    sharded.Run();

    for (const Loop& l : loops) {
      EXPECT_EQ(l.fe->stats().completed, kOps) << l.fe->name();
      EXPECT_EQ(l.fe->stats().errors, 0u) << l.fe->name();
    }
    EXPECT_EQ(sharded.io_errors(), 0u);
    // More device slots per DRR round means less time parked at the
    // admission gate: the weight-3 tenant sees the lowest mean latency.
    const double heavy = loops[0].fe->stats().write_latency.Mean();
    EXPECT_LT(heavy, loops[1].fe->stats().write_latency.Mean());
    EXPECT_LT(heavy, loops[2].fe->stats().write_latency.Mean());
    return sharded.CombinedFingerprint();
  };
  const std::uint64_t sequential = run(0);
  const std::uint64_t parallel = run(2);
  const std::uint64_t parallel_again = run(2);
  EXPECT_EQ(sequential, parallel);
  EXPECT_EQ(parallel, parallel_again);
}

}  // namespace
}  // namespace postblock::vbd
