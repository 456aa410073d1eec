// The unified typed command API: host::Command / HostInterface across
// every layer (SimpleBlockDevice, ssd::Device, BlockLayer,
// DirectDriver, HybridStore), plus TagSet and IoCallback units.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "blocklayer/simple_device.h"
#include "core/hybrid_store.h"
#include "core/pcm_log.h"
#include "host/command.h"
#include "host/tag_set.h"
#include "pcm/pcm_device.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock {
namespace {

using blocklayer::BlockLayer;
using blocklayer::BlockLayerConfig;
using blocklayer::IoCallback;
using blocklayer::IoResult;
using blocklayer::SimpleBlockDevice;
using blocklayer::SimpleDeviceConfig;

std::uint32_t Bit(host::CommandKind k) {
  return 1u << static_cast<std::uint32_t>(k);
}

// --- TagSet ---------------------------------------------------------------

TEST(TagSetTest, FixedSetGrantsAscendingAndBackpressures) {
  host::TagSet tags(3);
  EXPECT_EQ(tags.capacity(), 3u);
  EXPECT_EQ(tags.Acquire(), 0u);
  EXPECT_EQ(tags.Acquire(), 1u);
  EXPECT_EQ(tags.Acquire(), 2u);
  EXPECT_TRUE(tags.exhausted());
  EXPECT_EQ(tags.Acquire(), host::TagSet::kNoTag);
  EXPECT_EQ(tags.in_use(), 3u);
  tags.Release(1);
  EXPECT_FALSE(tags.exhausted());
  EXPECT_EQ(tags.Acquire(), 1u);  // LIFO recycle: hottest tag first
  EXPECT_EQ(tags.high_water(), 3u);
}

TEST(TagSetTest, ElasticSetNeverFails) {
  host::TagSet tags;  // capacity 0
  EXPECT_EQ(tags.capacity(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tags.Acquire(), i);
  }
  EXPECT_FALSE(tags.exhausted());
  tags.Release(42);
  EXPECT_EQ(tags.Acquire(), 42u);  // recycled before growing
  EXPECT_EQ(tags.high_water(), 100u);
}

// --- IoCallback -----------------------------------------------------------

TEST(IoCallbackTest, SmallCapturesStayInline) {
  int hits = 0;
  IoCallback cb([&hits](const IoResult&) { ++hits; });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.stored_inline());
  cb(IoResult{Status::Ok(), {}});
  EXPECT_EQ(hits, 1);
}

TEST(IoCallbackTest, LargeCapturesAreBoxedAndStillWork) {
  struct Big {
    std::uint64_t pad[16];  // 128 bytes > kInlineBytes
  };
  Big big{};
  big.pad[0] = 7;
  std::uint64_t seen = 0;
  IoCallback cb([big, &seen](const IoResult&) { seen = big.pad[0]; });
  EXPECT_FALSE(cb.stored_inline());
  cb(IoResult{Status::Ok(), {}});
  EXPECT_EQ(seen, 7u);
}

TEST(IoCallbackTest, MoveCarriesQueueRoutingContext) {
  IoCallback cb([](const IoResult&) {});
  cb.queue_id = 3;
  cb.tag = 17;
  IoCallback moved = std::move(cb);
  EXPECT_EQ(moved.queue_id, 3);
  EXPECT_EQ(moved.tag, 17);
  IoCallback assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.queue_id, 3);
  EXPECT_EQ(assigned.tag, 17);
  assigned(IoResult{Status::Ok(), {}});  // target survived both moves
}

TEST(IoCallbackTest, AcceptsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(5);
  int seen = 0;
  IoCallback cb(
      [owned = std::move(owned), &seen](const IoResult&) { seen = *owned; });
  IoCallback moved = std::move(cb);
  moved(IoResult{Status::Ok(), {}});
  EXPECT_EQ(seen, 5);
}

// --- Capability discovery -------------------------------------------------

TEST(HostCommandTest, CapabilityMasksPerLayer) {
  sim::Simulator sim;
  SimpleBlockDevice simple(&sim, SimpleDeviceConfig{});
  // A plain block device: the four legacy kinds plus advisory hints.
  const std::uint32_t basic =
      Bit(host::CommandKind::kRead) | Bit(host::CommandKind::kWrite) |
      Bit(host::CommandKind::kTrim) | Bit(host::CommandKind::kFlush) |
      Bit(host::CommandKind::kHint);
  EXPECT_EQ(simple.CapabilityMask(), basic);
  EXPECT_FALSE(simple.Supports(host::CommandKind::kAtomicGroup));

  // The page-mapped SSD speaks the full vision command set, including
  // the complete nameless vocabulary (write/read/free).
  ssd::Device dev(&sim, ssd::Config::Small());
  const std::uint32_t vision = basic |
                               Bit(host::CommandKind::kAtomicGroup) |
                               Bit(host::CommandKind::kNamelessWrite) |
                               Bit(host::CommandKind::kNamelessRead) |
                               Bit(host::CommandKind::kNamelessFree);
  EXPECT_EQ(dev.CapabilityMask(), vision);

  // Stacked layers advertise what the device below can do.
  BlockLayer over_simple(&sim, &simple, BlockLayerConfig{});
  EXPECT_EQ(over_simple.CapabilityMask(), basic);
  BlockLayer over_ssd(&sim, &dev, BlockLayerConfig{});
  EXPECT_EQ(over_ssd.CapabilityMask(), vision);
  blocklayer::DirectDriver direct(&sim, &dev);
  EXPECT_EQ(direct.CapabilityMask(), vision);
}

TEST(HostCommandTest, DeviceCapsProbeReplacesConfigPeeking) {
  sim::Simulator sim;
  // A plain block device: hints only, no extended vocabulary.
  SimpleBlockDevice simple(&sim, SimpleDeviceConfig{});
  host::DeviceCaps sc = simple.Caps();
  EXPECT_FALSE(sc.nameless);
  EXPECT_FALSE(sc.atomic_groups);
  EXPECT_TRUE(sc.hint_classes);
  EXPECT_FALSE(sc.pcm_sync);
  EXPECT_EQ(sc.append_regions, 0u);

  // The page-mapped SSD: full vision set, and the DRAM argument in one
  // number — the device L2P is sized by the *logical space* (8 B per
  // logical page, whether mapped or not).
  ssd::Device dev(&sim, ssd::Config::Small());
  host::DeviceCaps dc = dev.Caps();
  EXPECT_TRUE(dc.nameless);
  EXPECT_TRUE(dc.atomic_groups);
  EXPECT_EQ(dc.append_regions, 0u);
  EXPECT_EQ(dc.mapping_table_bytes, dev.num_blocks() * 8);

  // The post-block append device: nameless-only vocabulary, advertised
  // append regions, no logical address space behind kRead/kWrite/kTrim.
  ssd::Config acfg = ssd::Config::Small();
  acfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device append_dev(&sim, acfg);
  host::DeviceCaps ac = append_dev.Caps();
  EXPECT_TRUE(ac.nameless);
  EXPECT_EQ(ac.append_regions, acfg.append_regions);
  EXPECT_FALSE(ac.Supports(host::CommandKind::kRead));
  EXPECT_FALSE(ac.Supports(host::CommandKind::kWrite));
  EXPECT_FALSE(ac.Supports(host::CommandKind::kTrim));
  EXPECT_TRUE(ac.Supports(host::CommandKind::kFlush));
  EXPECT_TRUE(ac.Supports(host::CommandKind::kNamelessWrite));

  // Layers restate the device's caps; HybridStore adds the one thing
  // only it can claim — the synchronous PCM persistence path.
  blocklayer::DirectDriver direct(&sim, &append_dev);
  EXPECT_EQ(direct.Caps().append_regions, acfg.append_regions);
  EXPECT_TRUE(direct.Caps().nameless);
  pcm::PcmConfig pcm_cfg;
  pcm::PcmDevice pcm(&sim, pcm_cfg);
  core::PcmLog pcm_log(&sim, &pcm, 0, 1 * kMiB);
  core::HybridStore vision_store(&sim, &direct, &pcm_log);
  EXPECT_TRUE(vision_store.Caps().pcm_sync);
  core::HybridStore classic_store(&sim, &simple, /*log_region_start=*/0,
                                  /*log_region_blocks=*/8);
  EXPECT_FALSE(classic_store.Caps().pcm_sync);
}

TEST(HostCommandTest, UnsupportedExtendedKindsNeverSilentlyDrop) {
  // Regression guard: every extended kind sent to a stack that cannot
  // execute it must still *complete*, with a typed Unimplemented — a
  // command whose callback never fires is the block interface's silent
  // contract violation this API exists to kill.
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  int completions = 0;
  auto expect_unimpl = [&completions](const IoResult& r) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnimplemented);
    ++completions;
  };
  dev.Execute(host::Command::NamelessWrite(7, expect_unimpl));
  dev.Execute(host::Command::NamelessRead(99, expect_unimpl));
  dev.Execute(host::Command::NamelessFree(99, expect_unimpl));
  dev.Execute(
      host::Command::AtomicGroup({{1, 10}, {2, 20}}, expect_unimpl));
  sim.Run();
  EXPECT_EQ(completions, 4);

  // Same guarantee in the other direction: the append device refuses
  // the block vocabulary it has no address space for.
  ssd::Config acfg = ssd::Config::Small();
  acfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device append_dev(&sim, acfg);
  int refused = 0;
  auto expect_refused = [&refused](const IoResult& r) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnimplemented);
    ++refused;
  };
  append_dev.Execute(host::Command::Read(0, 1, expect_refused));
  append_dev.Execute(host::Command::Write(0, {1}, expect_refused));
  sim.Run();
  EXPECT_EQ(refused, 2);
  EXPECT_GE(append_dev.counters().Get("lba_commands_refused"), 2u);
}

// --- Execute lowering on a plain block device -----------------------------

TEST(HostCommandTest, BlockExpressibleCommandsLowerToSubmit) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  Status wst = Status::Internal("pending");
  dev.Execute(host::Command::Write(
      7, {1234}, [&wst](const IoResult& r) { wst = r.status; }));
  sim.Run();
  EXPECT_TRUE(wst.ok());
  Tokens tokens;
  dev.Execute(host::Command::Read(7, 1, [&tokens](const IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    tokens = r.tokens;
  }));
  sim.Run();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], 1234u);
}

TEST(HostCommandTest, HintsCompleteOkAndUnsupportedIsUnimplemented) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  bool hint_ok = false;
  dev.Execute(host::Command::Hint(
      host::HintKind::kSequential,
      [&hint_ok](const IoResult& r) { hint_ok = r.status.ok(); }));
  EXPECT_TRUE(hint_ok);  // hints are advisory: inline, never fail

  Status st = Status::Ok();
  dev.Execute(host::Command::AtomicGroup(
      {{1, 10}, {2, 20}}, [&st](const IoResult& r) { st = r.status; }));
  EXPECT_TRUE(st.code() == StatusCode::kUnimplemented);  // a block device cannot name this
}

// --- Extended commands on the SSD ----------------------------------------

TEST(HostCommandTest, AtomicGroupWritesAllExtentsTogether) {
  sim::Simulator sim;
  ssd::Device dev(&sim, ssd::Config::Small());
  Status st = Status::Internal("pending");
  dev.Execute(host::Command::AtomicGroup(
      {{5, 111}, {9, 222}}, [&st](const IoResult& r) { st = r.status; }));
  sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(dev.counters().Get("atomic_groups"), 1u);
  std::vector<std::uint64_t> got(2, 0);
  dev.Execute(host::Command::Read(5, 1, [&got](const IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    got[0] = r.tokens[0];
  }));
  dev.Execute(host::Command::Read(9, 1, [&got](const IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    got[1] = r.tokens[0];
  }));
  sim.Run();
  EXPECT_EQ(got[0], 111u);
  EXPECT_EQ(got[1], 222u);
}

TEST(HostCommandTest, NamelessWriteReturnsDeviceChosenName) {
  sim::Simulator sim;
  ssd::Device dev(&sim, ssd::Config::Small());
  std::vector<std::uint64_t> names;
  Status st = Status::Internal("pending");
  for (int i = 0; i < 2; ++i) {
    dev.Execute(host::Command::NamelessWrite(
        900 + i, [&names, &st](const IoResult& r) {
          st = r.status;
          if (r.status.ok()) names.push_back(r.tokens[0]);
        }));
  }
  sim.Run();
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(names.size(), 2u);
  EXPECT_NE(names[0], names[1]);  // distinct physical names
  EXPECT_EQ(dev.counters().Get("nameless_writes"), 2u);
}

// --- Stacked passthrough --------------------------------------------------

TEST(HostCommandTest, BlockLayerPassesExtendedCommandsThrough) {
  sim::Simulator sim;
  ssd::Device dev(&sim, ssd::Config::Small());
  BlockLayer layer(&sim, &dev, BlockLayerConfig{});
  Status st = Status::Internal("pending");
  layer.Execute(host::Command::AtomicGroup(
      {{3, 33}}, [&st](const IoResult& r) { st = r.status; }));
  sim.Run();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(layer.counters().Get("passthrough_cmds"), 1u);
  EXPECT_EQ(dev.counters().Get("atomic_groups"), 1u);
  // Queued kinds still pay the block layer, not the passthrough.
  bool read_ok = false;
  layer.Execute(host::Command::Read(
      3, 1, [&read_ok](const IoResult& r) { read_ok = r.status.ok(); }));
  sim.Run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(layer.counters().Get("submitted"), 1u);
  EXPECT_EQ(layer.counters().Get("passthrough_cmds"), 1u);
}

TEST(HostCommandTest, BlockLayerRefusesWhatTheDeviceCannotDo) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  BlockLayer layer(&sim, &dev, BlockLayerConfig{});
  Status st = Status::Ok();
  layer.Execute(host::Command::NamelessWrite(
      5, [&st](const IoResult& r) { st = r.status; }));
  EXPECT_TRUE(st.code() == StatusCode::kUnimplemented);
}

TEST(HostCommandTest, DirectDriverPassesExtendedCommandsThrough) {
  sim::Simulator sim;
  ssd::Device dev(&sim, ssd::Config::Small());
  blocklayer::DirectDriver direct(&sim, &dev);
  Status st = Status::Internal("pending");
  std::uint64_t name = 0;
  direct.Execute(
      host::Command::NamelessWrite(77, [&](const IoResult& r) {
        st = r.status;
        if (r.status.ok()) name = r.tokens[0];
      }));
  sim.Run();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(direct.counters().Get("passthrough_cmds"), 1u);
  EXPECT_EQ(dev.counters().Get("nameless_writes"), 1u);
  (void)name;
}

// --- HybridStore stream classification ------------------------------------

TEST(HostCommandTest, HybridStoreStampsStreamsForQueuePinning) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  BlockLayerConfig cfg;
  cfg.nr_queues = 4;
  cfg.stream_queues = true;
  BlockLayer layer(&sim, &dev, cfg);
  core::HybridStore store(&sim, &layer, /*log_region_start=*/0,
                          /*log_region_blocks=*/64);
  store.set_streams(/*wal_stream=*/1, /*async_stream=*/2);

  // Unclassified async traffic inherits async_stream -> queue 2.
  bool read_ok = false;
  store.Execute(host::Command::Read(
      100, 1, [&read_ok](const IoResult& r) { read_ok = r.status.ok(); }));
  sim.Run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(store.counters().Get("async_requests"), 1u);
  EXPECT_EQ(layer.scheduler(2).counters().Get("enqueued"), 1u);

  // Commit-critical WAL write+flush land on wal_stream's queue 1.
  Status persisted = Status::Internal("pending");
  store.SyncPersist({0xaa, 0xbb},
                    [&persisted](Status st) { persisted = st; });
  sim.Run();
  EXPECT_TRUE(persisted.ok());
  EXPECT_EQ(layer.scheduler(1).counters().Get("enqueued"), 2u);
  EXPECT_EQ(layer.counters().Get("stream_pins"), 3u);

  // An explicitly classified command keeps its own stream.
  host::Command c = host::Command::Read(101, 1, [](const IoResult&) {});
  c.stream = 3;
  store.Execute(std::move(c));
  sim.Run();
  EXPECT_EQ(layer.scheduler(3).counters().Get("enqueued"), 1u);
}

}  // namespace
}  // namespace postblock
