// The layer ladder: one seeded 4 KiB stream pushed through
// progressively deeper stacks, so each layer's host cost is the
// increment over the rung below.
//
//   sim         bare sim::Simulator, the same closed-loop event pattern
//   resource    SimpleBlockDevice (event core + sim::Resource)
//   ssd         fresh ssd::Device, the stream's LBAs as reads
//   ftl         aged ssd::Device, the stream as a 30%-write mix (GC runs)
//   blocklayer  + BlockLayer, 4 queue pairs
//   vbd         + vbd::Backend, one tenant spanning the device
//   db          E22 classic-wiring transactions (per txn, not per IO)
//
// Rungs are interleaved across repetitions, so slow drift of the host
// hits every rung alike; each row reports medians and its own spread.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocklayer/block_layer.h"
#include "blocklayer/simple_device.h"
#include "db/storage_manager.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "vbd/backend.h"
#include "workloads.h"

namespace perfbench {

namespace pb = postblock;

namespace {

constexpr std::uint64_t kLadderOps = 40'000;
constexpr std::uint64_t kLadderTxns = 4'000;
constexpr int kLadderReps = 5;
constexpr std::uint32_t kQueueDepth = 32;
constexpr SimTime kReadNs = 10 * pb::kMicrosecond;
constexpr SimTime kWriteNs = 30 * pb::kMicrosecond;

using Script = std::vector<std::pair<bool, Lba>>;

struct Sample {
  double wall_ns_per_op = 0;
  double events_per_op = 0;
  double allocs_per_op = 0;
};

template <typename Fn>
Sample Measure(pb::sim::Simulator* sim, std::uint64_t ops, Fn&& fn) {
  const std::uint64_t ev0 = sim->events_executed();
  const std::uint64_t a0 = AllocCount();
  const std::uint64_t w0 = WallNs();
  fn();
  const double n = static_cast<double>(ops);
  Sample s;
  s.wall_ns_per_op = static_cast<double>(WallNs() - w0) / n;
  s.allocs_per_op = static_cast<double>(AllocCount() - a0) / n;
  s.events_per_op = static_cast<double>(sim->events_executed() - ev0) / n;
  return s;
}

/// Rung 0: the event pattern alone. Each op is one timer whose delay is
/// the resource rung's service time; its expiry issues the next op.
class BareLoop {
 public:
  BareLoop(pb::sim::Simulator* sim, const Script* script)
      : sim_(sim), script_(script) {}
  void Run(std::uint64_t quota) {
    quota_ = quota;
    issued_ = done_ = 0;
    for (std::uint32_t q = 0; q < kQueueDepth; ++q) Issue();
    RunUntil(sim_, [this] { return done_ >= quota_; });
  }

 private:
  void Issue() {
    if (issued_ >= quota_) return;
    const bool write = (*script_)[issued_++ % script_->size()].first;
    sim_->Schedule(write ? kWriteNs : kReadNs, [this] {
      ++done_;
      Issue();
    });
  }
  pb::sim::Simulator* sim_;
  const Script* script_;
  std::uint64_t quota_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t done_ = 0;
};

pb::ssd::Config LadderSsd() { return Fig2Config(nullptr); }

class Ladder {
 public:
  Ladder(std::uint64_t seed, std::uint64_t scale_div)
      : ops_(std::max<std::uint64_t>(kLadderOps / scale_div, 64)),
        txns_(std::max<std::uint64_t>(kLadderTxns / scale_div, 64)),
        fresh_dev_(&fresh_sim_, LadderSsd()),
        aged_dev_(&aged_sim_, LadderSsd()) {
    const std::uint64_t n = aged_dev_.num_blocks();
    pb::Rng rng(SubSeed(seed, 40));
    for (std::uint64_t i = 0; i < ops_; ++i) {
      const bool write = rng.Bernoulli(0.30);
      script_.emplace_back(write, rng.Uniform(n));
      read_script_.emplace_back(false, script_.back().second);
    }
    pb::blocklayer::SimpleDeviceConfig sc;
    sc.num_blocks = n;
    sc.units = LadderSsd().geometry.luns();
    sc.read_ns = kReadNs;
    sc.write_ns = kWriteNs;
    simple_ = std::make_unique<pb::blocklayer::SimpleBlockDevice>(&res_sim_,
                                                                   sc);
    res_shadow_.assign(n, 0);

    fresh_shadow_.assign(n, 0);
    failed_ += FillSequential(&fresh_sim_, &fresh_dev_, n, &fresh_shadow_,
                              &token_);

    pb::blocklayer::BlockLayerConfig bl;
    bl.nr_queues = 4;
    bl.queue_depth = kQueueDepth / 4;
    bl.doorbell_batch = 8;
    bl.doorbell_ns = 300;
    bl.coalesce_depth = 8;
    bl.coalesce_ns = 2 * pb::kMicrosecond;
    layer_ = std::make_unique<pb::blocklayer::BlockLayer>(&aged_sim_,
                                                          &aged_dev_, bl);
    backend_ = std::make_unique<pb::vbd::Backend>(&aged_sim_, layer_.get());
    pb::vbd::TenantConfig tc;
    tc.capacity_blocks = n;
    auto fe = backend_->CreateTenant(tc);
    if (fe.ok()) {
      tenant_ = fe.value();
      // Fill and age through the tenant, so its allocation map is full
      // and every rung on this stack reads real media.
      aged_shadow_.assign(n, 0);
      failed_ += FillSequential(&aged_sim_, tenant_, n, &aged_shadow_,
                                &token_);
      failed_ += AgeRandom(&aged_sim_, tenant_, n, 2 * n, SubSeed(seed, 41),
                           &aged_shadow_, &token_);
    } else {
      ++failed_;
    }
    BuildDb(seed);
  }

  std::uint64_t failed() const { return failed_; }

  /// One repetition of every rung, bottom to top.
  std::vector<Sample> RunOnce() {
    std::vector<Sample> row;
    BareLoop bare(&bare_sim_, &script_);
    row.push_back(Measure(&bare_sim_, ops_, [&] { bare.Run(ops_); }));
    row.push_back(Io(&res_sim_, simple_.get(), &script_, &res_shadow_));
    row.push_back(Io(&fresh_sim_, &fresh_dev_, &read_script_,
                     &fresh_shadow_));
    row.push_back(Io(&aged_sim_, &aged_dev_, &script_, &aged_shadow_));
    row.push_back(Io(&aged_sim_, layer_.get(), &script_, &aged_shadow_));
    row.push_back(Io(&aged_sim_, tenant_, &script_, &aged_shadow_));
    row.push_back(Measure(&db_sim_, txns_, [&] { DbTxns(); }));
    return row;
  }

 private:
  Sample Io(pb::sim::Simulator* sim, pb::blocklayer::BlockDevice* dev,
            const Script* script, std::vector<std::uint64_t>* shadow) {
    ClosedLoop loop(sim, &token_, /*record_latency=*/false);
    Client c;
    c.device = dev;
    c.queue_depth = kQueueDepth;
    c.quota = ops_;
    c.lba_count = shadow->size();
    c.script = script;
    c.shadow = shadow;
    loop.Add(c);
    const Sample s = Measure(sim, ops_, [&] { loop.Run(); });
    failed_ += loop.failed();
    sim->Run();  // drain background work outside the measurement
    return s;
  }

  template <typename Start>
  void Sync(Start&& start) {
    bool fired = false;
    bool ok = false;
    start([&](pb::Status st) {
      ok = st.ok();
      fired = true;
    });
    if (!RunUntil(&db_sim_, [&] { return fired; }) || !ok) ++failed_;
  }

  void BuildDb(std::uint64_t seed) {
    pb::ssd::Config c = pb::ssd::Config::Small();
    c.geometry.blocks_per_plane = 16;  // db_txn's device
    db_dev_ = std::make_unique<pb::ssd::Device>(&db_sim_, c);
    pb::db::StorageConfig cfg;
    cfg.wiring = pb::db::Wiring::kClassic;
    cfg.buffer_frames = 256;
    db_ = std::make_unique<pb::db::StorageManager>(&db_sim_, db_dev_.get(),
                                                   cfg);
    using Cb = pb::db::StorageManager::StatusCb;
    Sync([&](Cb cb) { db_->Bootstrap(std::move(cb)); });
    pb::Rng load(SubSeed(seed, 42));
    for (std::uint64_t base = 0; base < 28'000; base += 100) {
      std::vector<pb::db::WalOp> ops;
      for (std::uint64_t j = 0; j < 100; ++j) {
        ops.push_back({pb::db::WalOp::Kind::kPut, base + j, load.Next() | 1});
      }
      Sync([&](Cb cb) { db_->CommitBatch(std::move(ops), std::move(cb)); });
    }
    Sync([&](Cb cb) { db_->Checkpoint(std::move(cb)); });
    db_rng_ = pb::Rng(SubSeed(seed, 43));
  }

  void DbTxns() {
    using Cb = pb::db::StorageManager::StatusCb;
    for (std::uint64_t i = 0; i < txns_; ++i) {
      const std::uint64_t k = db_rng_.Uniform(28'000);
      if (db_rng_.Bernoulli(0.15)) {
        Sync([&](Cb cb) { db_->Delete(k, std::move(cb)); });
      } else {
        const std::uint64_t v = db_rng_.Next() | 1;
        Sync([&](Cb cb) { db_->Put(k, v, std::move(cb)); });
      }
      if (i % 60 == 59) Sync([&](Cb cb) { db_->Checkpoint(std::move(cb)); });
    }
  }

  const std::uint64_t ops_;
  const std::uint64_t txns_;
  Script script_;
  Script read_script_;
  std::uint64_t token_ = 0;
  std::uint64_t failed_ = 0;

  pb::sim::Simulator bare_sim_;

  pb::sim::Simulator res_sim_;
  std::unique_ptr<pb::blocklayer::SimpleBlockDevice> simple_;
  std::vector<std::uint64_t> res_shadow_;

  pb::sim::Simulator fresh_sim_;
  pb::ssd::Device fresh_dev_;
  std::vector<std::uint64_t> fresh_shadow_;

  pb::sim::Simulator aged_sim_;
  pb::ssd::Device aged_dev_;
  std::unique_ptr<pb::blocklayer::BlockLayer> layer_;
  std::unique_ptr<pb::vbd::Backend> backend_;
  pb::vbd::Frontend* tenant_ = nullptr;
  std::vector<std::uint64_t> aged_shadow_;

  pb::sim::Simulator db_sim_;
  std::unique_ptr<pb::ssd::Device> db_dev_;
  std::unique_ptr<pb::db::StorageManager> db_;
  pb::Rng db_rng_;
};

/// Interquartile range in the values' own unit.
double Iqr(const std::vector<double>& v) {
  return IqrShare(v) * std::fabs(Median(v));
}

}  // namespace

std::map<std::string, double> RunLadder(std::uint64_t seed,
                                        std::uint64_t scale_div,
                                        std::uint64_t* failed) {
  static const char* const kRungs[] = {"sim", "resource", "ssd", "ftl",
                                       "blocklayer", "vbd", "db"};
  constexpr std::size_t kN = sizeof(kRungs) / sizeof(kRungs[0]);
  Ladder ladder(seed, scale_div);
  std::vector<std::vector<Sample>> samples(kN);
  (void)ladder.RunOnce();  // warm-up, not measured
  for (int r = 0; r < kLadderReps; ++r) {
    const std::vector<Sample> row = ladder.RunOnce();
    for (std::size_t i = 0; i < kN; ++i) samples[i].push_back(row[i]);
  }

  std::map<std::string, double> out;
  std::printf("\nlayer ladder (%d reps, medians; spread = IQR of wall ns/op)\n",
              kLadderReps);
  std::printf("  %-11s %12s %10s %12s %10s %10s  %s\n", "rung", "wall ns/op",
              "spread", "inc ns/op", "events/op", "allocs/op", "note");
  double prev_wall = 0;
  double prev_iqr = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    std::vector<double> wall, events, allocs;
    for (const Sample& s : samples[i]) {
      wall.push_back(s.wall_ns_per_op);
      events.push_back(s.events_per_op);
      allocs.push_back(s.allocs_per_op);
    }
    const double w = Median(wall);
    const double iqr = Iqr(wall);
    const double inc = w - prev_wall;
    const std::string layer = kRungs[i];
    out[layer + ".wall_ns_per_op"] = w;
    out[layer + ".events_per_op"] = Median(events);
    out[layer + ".allocs_per_op"] = Median(allocs);
    out[layer + ".inc_wall_ns_per_op"] = inc;
    const bool below_noise = std::fabs(inc) <= iqr + prev_iqr;
    std::printf("  %-11s %12.1f %10.1f %12.1f %10.3f %10.3f  %s\n",
                kRungs[i], w, iqr, inc, Median(events), Median(allocs),
                below_noise ? "increment within noise" : "");
    prev_wall = w;
    prev_iqr = iqr;
  }
  std::printf("  (db rung is per transaction, the others per 4 KiB IO)\n");
  *failed += ladder.failed();
  return out;
}

}  // namespace perfbench
