// The post-block crossover's crash story: a StorageManager in vision
// wiring over the append-mode device (FtlKind::kVisionAppend) — host
// owns the L2P, the device issues names — must survive power loss at
// any point. Recovery rebuilds the host map from the device's LiveNames
// scan (OOB owner stamps + checkpoint epochs), then replays the WAL.
// Also: the append device's own name discipline (generation-guarded
// stale names, cooperative migration), and run-twice determinism of
// both wirings.

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/request.h"
#include "common/rng.h"
#include "db/storage_manager.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::db {
namespace {

ssd::Config AppendSsd() {
  ssd::Config c = ssd::Config::Small();
  c.geometry.blocks_per_plane = 64;
  c.ftl = ssd::FtlKind::kVisionAppend;
  return c;
}

class VisionRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    device_ = std::make_unique<ssd::Device>(sim_.get(), AppendSsd());
    StorageConfig cfg;
    cfg.wiring = Wiring::kVision;
    cfg.buffer_frames = 256;
    manager_ =
        std::make_unique<StorageManager>(sim_.get(), device_.get(), cfg);
    Status st = Sync([&](StorageManager::StatusCb cb) {
      manager_->Bootstrap(std::move(cb));
    });
    ASSERT_TRUE(st.ok()) << st;
  }

  template <typename F>
  Status Sync(F&& f) {
    Status out = Status::Internal("pending");
    bool fired = false;
    f([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }))
        << "operation stalled";
    return out;
  }

  Status Put(std::uint64_t k, std::uint64_t v) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Put(k, v, std::move(cb));
    });
  }

  Status Del(std::uint64_t k) {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Delete(k, std::move(cb));
    });
  }

  StatusOr<std::uint64_t> Get(std::uint64_t k) {
    StatusOr<std::uint64_t> out = Status::Internal("pending");
    bool fired = false;
    manager_->Get(k, [&](StatusOr<std::uint64_t> r) {
      out = std::move(r);
      fired = true;
    });
    EXPECT_TRUE(sim_->RunUntilPredicate([&] { return fired; }));
    return out;
  }

  Status Checkpoint() {
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Checkpoint(std::move(cb));
    });
  }

  Status CrashAndRecover() {
    PB_RETURN_IF_ERROR(manager_->SimulateCrash());
    return Sync([&](StorageManager::StatusCb cb) {
      manager_->Recover(std::move(cb));
    });
  }

  void VerifyShadow(const std::map<std::uint64_t, std::uint64_t>& shadow,
                    const char* where) {
    for (const auto& [k, v] : shadow) {
      ASSERT_EQ(*Get(k), v) << where << " key " << k;
    }
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<ssd::Device> device_;
  std::unique_ptr<StorageManager> manager_;
};

TEST_F(VisionRecoveryTest, AppendWiringIsCapabilityProbed) {
  // The manager must have discovered the append device through
  // Supports() and wired the host-owned map in — not by peeking at the
  // config.
  ASSERT_NE(manager_->host_map(), nullptr);
  ASSERT_NE(device_->append_ftl(), nullptr);
  EXPECT_GT(manager_->host_map()->live(), 0u);   // bootstrap checkpoint
  EXPECT_GT(manager_->host_map()->MappingBytes(), 0u);
  EXPECT_EQ(manager_->ckpt_seq(), 1u);
  // The device below holds no per-page L2P: its mapping DRAM is
  // per-block bookkeeping, far below 8 B per logical page.
  EXPECT_LT(device_->Caps().mapping_table_bytes,
            device_->num_blocks() * 8);
  ASSERT_TRUE(Put(1, 10).ok());
  EXPECT_EQ(*Get(1), 10u);
}

TEST_F(VisionRecoveryTest, RecoverWithoutCheckpointReplaysWal) {
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(Put(k, k * 7).ok());
  }
  ASSERT_TRUE(CrashAndRecover().ok());
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(*Get(k), k * 7) << k;
  }
}

TEST_F(VisionRecoveryTest, RecoverAfterCheckpointAndMoreCommits) {
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Checkpoint().ok());
  for (std::uint64_t k = 40; k < 80; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  ASSERT_TRUE(Del(0).ok());
  ASSERT_TRUE(CrashAndRecover().ok());
  EXPECT_TRUE(Get(0).status().IsNotFound());
  for (std::uint64_t k = 1; k < 80; ++k) {
    ASSERT_EQ(*Get(k), k + 1) << k;
  }
}

TEST_F(VisionRecoveryTest, TornCheckpointFallsBackToPriorEpoch) {
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (std::uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(Put(k, k + 100).ok());
    shadow[k] = k + 100;
  }
  ASSERT_TRUE(Checkpoint().ok());
  const std::uint64_t committed = manager_->ckpt_seq();
  // Overwrite every key: the next checkpoint's flush replaces pages
  // that all have committed epoch-1 copies on flash.
  for (std::uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(Put(k, k + 500).ok());
    shadow[k] = k + 500;
  }
  // Start a checkpoint and cut power while its page writes are in
  // flight — before the meta page (the commit point) can land.
  bool ckpt_fired = false;
  manager_->Checkpoint([&](Status) { ckpt_fired = true; });
  // Run until some of the checkpoint's page writes have completed (the
  // host map retires each overwritten old copy as its replacement
  // lands) but the checkpoint as a whole hasn't committed.
  ASSERT_TRUE(sim_->RunUntilPredicate([&] {
    return ckpt_fired || manager_->host_map()->retired() >= 1;
  }));
  ASSERT_FALSE(ckpt_fired);
  ASSERT_TRUE(manager_->SimulateCrash().ok());
  Status st = Sync([&](StorageManager::StatusCb cb) {
    manager_->Recover(std::move(cb));
  });
  ASSERT_TRUE(st.ok()) << st;
  // The torn checkpoint's orphan pages (epoch > committed) were
  // discarded; recovery attached to the prior epoch and the WAL replay
  // reconstructed everything acknowledged.
  EXPECT_EQ(manager_->ckpt_seq(), committed);
  EXPECT_GT(manager_->counters().Get("orphan_names"), 0u);
  VerifyShadow(shadow, "torn checkpoint");
}

TEST_F(VisionRecoveryTest, ShadowMapCrashTorture) {
  // The PR 4 torture pattern on the post-block stack: random
  // put/delete traffic against an in-memory shadow, power cycles
  // landing between commits, after checkpoints, and *inside*
  // checkpoints. After every recovery the database must agree with the
  // shadow exactly — no lost acknowledged commit, no stale page, no
  // aliased name.
  Rng rng(11);
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (int round = 0; round < 6; ++round) {
    const int ops = 40 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t k = rng.Uniform(200);
      if (rng.Bernoulli(0.25)) {
        ASSERT_TRUE(Del(k).ok());
        shadow.erase(k);
      } else {
        const std::uint64_t v = rng.Next() | 1;
        ASSERT_TRUE(Put(k, v).ok());
        shadow[k] = v;
      }
    }
    switch (round % 3) {
      case 0:
        break;  // crash with a WAL full of post-checkpoint commits
      case 1:
        ASSERT_TRUE(Checkpoint().ok());
        break;
      case 2: {
        // Torn checkpoint: cut power mid-flush.
        bool fired = false;
        manager_->Checkpoint([&](Status) { fired = true; });
        sim_->RunUntil(sim_->Now() + 10 * 1000 + rng.Uniform(40 * 1000));
        (void)fired;
        break;
      }
    }
    ASSERT_TRUE(CrashAndRecover().ok()) << "round " << round;
    VerifyShadow(shadow, "torture round");
  }
  // The workload churned enough to retire and free old copies; the
  // device must have gotten space back (erases happened) without ever
  // garbage-collecting on its own initiative.
  EXPECT_GT(device_->counters().Get("nameless_frees"), 0u);
}

// --- Device-level name discipline -------------------------------------------

TEST(AppendDeviceTest, StaleNamesAreNotFoundNeverAliased) {
  // Free a name, force its block through erase + reprogram, then read
  // the dead name: the generation guard must answer NotFound — serving
  // whatever landed in that physical page would be an aliased read.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  auto write = [&](std::uint64_t token) {
    std::uint64_t name = 0;
    bool fired = false;
    dev.Submit(blocklayer::IoRequest::NamelessWrite(
        token, [&](const blocklayer::IoResult& r) {
          ASSERT_TRUE(r.status.ok()) << r.status;
          name = r.tokens[0];
          fired = true;
        }));
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return name;
  };
  const std::uint64_t doomed = write(0xdead);
  bool freed = false;
  dev.Submit(blocklayer::IoRequest::NamelessFree(
      doomed, [&](const blocklayer::IoResult& r) {
        ASSERT_TRUE(r.status.ok());
        freed = true;
      }));
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return freed; }));
  // The freed page was its block's only live page, so the block was
  // erased. Writing a full device's worth of fresh pages guarantees
  // the physical page is programmed again under a new generation.
  const std::uint64_t fill = dev.append_ftl()->user_pages() / 2;
  std::set<std::uint64_t> fresh;
  for (std::uint64_t i = 0; i < fill; ++i) fresh.insert(write(i + 1));
  EXPECT_EQ(fresh.size(), fill);        // all distinct
  EXPECT_EQ(fresh.count(doomed), 0u);   // the dead name never reissued
  Status st = Status::Ok();
  dev.Submit(blocklayer::IoRequest::NamelessRead(
      doomed,
      [&](const blocklayer::IoResult& r) { st = r.status; }));
  sim.Run();
  EXPECT_TRUE(st.IsNotFound()) << st;
}

TEST(AppendDeviceTest, CooperativeMigrationKeepsNamesReadable) {
  // Fragment the device (free scattered pages) and keep writing until
  // the free-block watermark forces cooperative migration. Every move
  // must arrive as a callback, and every live name must stay readable
  // with its original payload.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  ASSERT_TRUE(dev.Supports(blocklayer::IoOp::kNamelessWrite));
  std::map<std::uint64_t, std::uint64_t> values;  // name -> token
  dev.SetMigrationHandler([&](std::uint64_t old_name,
                              std::uint64_t new_name) {
    auto it = values.find(old_name);
    ASSERT_NE(it, values.end()) << "migration callback for unknown name";
    values.emplace(new_name, it->second);
    values.erase(it);
  });
  // Submits `request` and runs until it completes.
  const auto run = [&](blocklayer::IoRequest request) {
    blocklayer::IoResult out{Status::Internal("never completed"), {}};
    bool fired = false;
    request.on_complete = [&](const blocklayer::IoResult& r) {
      out = r;
      fired = true;
    };
    dev.Submit(std::move(request));
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return out;
  };
  auto write = [&](std::uint64_t token) {
    const blocklayer::IoResult r =
        run(blocklayer::IoRequest::NamelessWrite(token, {}));
    ASSERT_TRUE(r.status.ok()) << r.status;
    values.emplace(r.tokens[0], token);
  };
  auto free_name = [&](std::uint64_t name) {
    values.erase(name);
    const blocklayer::IoResult r =
        run(blocklayer::IoRequest::NamelessFree(name, {}));
    ASSERT_TRUE(r.status.ok()) << r.status;
  };
  const std::uint64_t capacity = dev.append_ftl()->user_pages();
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < capacity * 6 / 10; ++i) write(token++);
  for (int round = 0; round < 4; ++round) {
    // Free every 4th live name (blocks stay 75% live — erases need
    // migration), then write replacements.
    std::vector<std::uint64_t> names;
    names.reserve(values.size());
    for (const auto& [n, t] : values) names.push_back(n);
    std::size_t freed = 0;
    for (std::size_t i = 0; i < names.size(); i += 4) {
      free_name(names[i]);
      ++freed;
    }
    for (std::size_t i = 0; i < freed; ++i) write(token++);
  }
  EXPECT_GT(dev.ftl()->counters().Get("migrate_page_moves"), 0u);
  // Every name the host holds reads back its own payload.
  for (const auto& [name, expect] : values) {
    const blocklayer::IoResult r =
        run(blocklayer::IoRequest::NamelessRead(name, {}));
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_EQ(r.tokens[0], expect) << "name " << name;
  }
  // Migration never invented or lost space.
  EXPECT_EQ(dev.append_ftl()->live_pages(), values.size());
}

TEST(AppendDeviceTest, FreeOfAPageBeingMigratedCountsOnce) {
  // A host free can land while cooperative migration copies that very
  // page. The copy must die with it: no migration callback names the
  // freed page, and no valid page is left that no host name reaches (a
  // leaked copy pins its block forever). The victim block, once erased,
  // must serve a new life in which its last live page stays readable.
  sim::Simulator sim;
  ssd::Device dev(&sim, AppendSsd());
  const flash::Geometry& g = AppendSsd().geometry;
  const auto block_of = [&g](std::uint64_t name) {
    return flash::Ppa::FromFlat(g, name & ((1ull << 40) - 1))
        .Block()
        .Flatten(g);
  };
  const auto& counters = dev.ftl()->counters();
  const auto runs = [&counters] {
    return counters.Get("migrate_runs") + counters.Get("refresh_runs");
  };
  const auto migrating = [&counters, &runs] {
    return runs() > counters.Get("migrate_erases") +
                        counters.Get("migrate_aborts");
  };
  flash::FlashArray* flash = dev.append_ftl()->controller()->flash();
  const auto valid_pages = [&g, flash](std::uint64_t flat) {
    return flash->GetBlockInfo(flash::BlockAddr::FromFlat(g, flat))
        .valid_pages;
  };
  std::map<std::uint64_t, std::uint64_t> values;  // name -> token
  std::uint64_t victim = ~0ull;  // flat block the last move came from
  std::uint64_t victim_run = 0;  // the migration run that moved it
  dev.SetMigrationHandler([&](std::uint64_t old_name,
                              std::uint64_t new_name) {
    auto it = values.find(old_name);
    if (it == values.end()) {
      ADD_FAILURE() << "migration callback for freed name " << old_name;
      return;
    }
    victim = block_of(old_name);
    victim_run = runs();
    values.emplace(new_name, it->second);
    values.erase(it);
  });
  std::uint64_t token = 1;
  const auto write = [&] {
    std::uint64_t name = ~0ull;
    dev.Submit(blocklayer::IoRequest::NamelessWrite(
        token, [&](const blocklayer::IoResult& r) {
          ASSERT_TRUE(r.status.ok()) << r.status;
          name = r.tokens[0];
        }));
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return name != ~0ull; }));
    values.emplace(name, token++);
    return name;
  };
  const auto free_name = [&](std::uint64_t name) {
    values.erase(name);
    dev.Submit(blocklayer::IoRequest::NamelessFree(
        name, [](const blocklayer::IoResult& r) {
          EXPECT_TRUE(r.status.ok()) << r.status;
        }));
  };

  // Fragment until a migration run has moved a page and is copying the
  // next one (its victim still holds a valid page), then free every
  // name, the victim's first: the page in flight is freed under the
  // copy.
  const std::uint64_t capacity = dev.append_ftl()->user_pages();
  for (std::uint64_t i = 0; i < capacity * 6 / 10; ++i) write();
  const auto copying = [&] {
    return migrating() && victim_run == runs() && valid_pages(victim) > 0;
  };
  for (int i = 0; i < 100000 && !copying(); ++i) {
    if (i % 4 == 0) free_name(values.begin()->first);
    write();
  }
  ASSERT_TRUE(copying());
  std::vector<std::uint64_t> all;
  for (const auto& [name, t] : values) {
    if (block_of(name) == victim) all.push_back(name);
  }
  for (const auto& [name, t] : values) {
    if (block_of(name) != victim) all.push_back(name);
  }
  for (std::uint64_t name : all) free_name(name);
  sim.Run();
  EXPECT_GE(counters.Get("migrate_copies_dropped"), 1u);
  std::uint64_t valid = 0;
  for (std::uint64_t flat = 0; flat < g.total_blocks(); ++flat) {
    valid += valid_pages(flat);
  }
  EXPECT_EQ(valid, dev.append_ftl()->live_pages());

  // Reuse the victim block until it is full and no longer active, then
  // free all of its pages but one.
  std::vector<std::uint64_t> in_victim;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    const std::uint64_t name = write();
    if (in_victim.size() == g.pages_per_block) break;
    if (block_of(name) == victim) in_victim.push_back(name);
  }
  ASSERT_EQ(in_victim.size(), g.pages_per_block);
  for (std::size_t i = 1; i < in_victim.size(); ++i) {
    free_name(in_victim[i]);
  }
  sim.Run();
  Status st = Status::Internal("pending");
  std::uint64_t got = 0;
  dev.Submit(blocklayer::IoRequest::NamelessRead(
      in_victim[0], [&](const blocklayer::IoResult& r) {
        st = r.status;
        if (r.status.ok()) got = r.tokens[0];
      }));
  sim.Run();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(got, values.at(in_victim[0]));
}

// --- Run-twice determinism ---------------------------------------------------

std::string WorkloadDigest(Wiring wiring, bool append_device) {
  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Small();
  cfg.geometry.blocks_per_plane = 64;
  if (append_device) cfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device device(&sim, cfg);
  StorageConfig scfg;
  scfg.wiring = wiring;
  scfg.buffer_frames = 128;
  StorageManager manager(&sim, &device, scfg);
  auto sync = [&](auto&& f) {
    Status out = Status::Internal("pending");
    bool fired = false;
    f([&](Status st) {
      out = std::move(st);
      fired = true;
    });
    EXPECT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
    return out;
  };
  EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                manager.Bootstrap(std::move(cb));
              }).ok());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.Uniform(150);
    EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                  manager.Put(k, rng.Next(), std::move(cb));
                }).ok());
    if (i % 64 == 63) {
      EXPECT_TRUE(sync([&](StorageManager::StatusCb cb) {
                    manager.Checkpoint(std::move(cb));
                  }).ok());
    }
  }
  std::ostringstream out;
  out << sim.Now() << ':' << manager.counters().Get("txns") << ':'
      << manager.counters().Get("checkpoints") << ':'
      << device.ftl()->WriteAmplification() << ':'
      << device.counters().Get("requests") << ':'
      << device.counters().Get("nameless_writes") << ':'
      << manager.commit_latency().Mean();
  return out.str();
}

TEST(VisionDeterminismTest, RunTwiceIsIdenticalBothWirings) {
  // The repo's schedule contract extends to the post-block stack: the
  // same workload must produce byte-identical digests on a second run,
  // for the classic wiring and for the vision wiring over the append
  // device alike.
  const std::string classic1 = WorkloadDigest(Wiring::kClassic, false);
  const std::string classic2 = WorkloadDigest(Wiring::kClassic, false);
  EXPECT_EQ(classic1, classic2);
  const std::string vision1 = WorkloadDigest(Wiring::kVision, true);
  const std::string vision2 = WorkloadDigest(Wiring::kVision, true);
  EXPECT_EQ(vision1, vision2);
  EXPECT_NE(classic1, vision1);  // genuinely different architectures
}

}  // namespace
}  // namespace postblock::db
