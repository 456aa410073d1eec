// The one host API: IoRequest through HostInterface::Submit across
// every layer (SimpleBlockDevice, Hdd, ssd::Device, BlockLayer,
// DirectDriver, vbd::Frontend, HostMap), with capability answers held
// to behaviour, both vocabularies sent to one device of each FTL kind,
// plus IoCallback units.
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocklayer/block_layer.h"
#include "blocklayer/direct_driver.h"
#include "blocklayer/simple_device.h"
#include "common/statusor.h"
#include "db/host_map.h"
#include "hdd/hdd.h"
#include "host/command.h"
#include "sim/simulator.h"
#include "ssd/device.h"
#include "vbd/backend.h"

namespace postblock {
namespace {

using blocklayer::BlockLayer;
using blocklayer::BlockLayerConfig;
using blocklayer::IoCallback;
using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;
using blocklayer::SimpleBlockDevice;
using blocklayer::SimpleDeviceConfig;

std::uint32_t Bit(IoOp k) {
  return 1u << static_cast<std::uint32_t>(k);
}

// The ops `stack` answers Supports for, one bit per IoOp.
std::uint32_t SupportedOps(const host::HostInterface& stack) {
  std::uint32_t ops = 0;
  for (std::size_t k = 0; k < blocklayer::kNumIoOps; ++k) {
    const auto op = static_cast<IoOp>(k);
    if (stack.Supports(op)) ops |= Bit(op);
  }
  return ops;
}

ssd::Config SmallConfig(ssd::FtlKind ftl) {
  ssd::Config c = ssd::Config::Small();
  c.ftl = ftl;
  return c;
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
  // A plain block device: the four block ops plus advisory hints.
  const std::uint32_t basic = Bit(IoOp::kRead) | Bit(IoOp::kWrite) |
                              Bit(IoOp::kTrim) | Bit(IoOp::kFlush) |
                              Bit(IoOp::kHint);
  EXPECT_EQ(SupportedOps(simple), basic);
  EXPECT_FALSE(simple.Supports(IoOp::kAtomicGroup));

  // The page-mapped SSD adds atomic groups to the block ops. It issues
  // no names: the nameless vocabulary is the append device's alone.
  ssd::Device dev(&sim, ssd::Config::Small());
  const std::uint32_t atomic = basic | Bit(IoOp::kAtomicGroup);
  EXPECT_EQ(SupportedOps(dev), atomic);

  // Stacked layers advertise what the device below can do.
  BlockLayer over_simple(&sim, &simple, BlockLayerConfig{});
  EXPECT_EQ(SupportedOps(over_simple), basic);
  BlockLayer over_ssd(&sim, &dev, BlockLayerConfig{});
  EXPECT_EQ(SupportedOps(over_ssd), atomic);
  blocklayer::DirectDriver direct(&sim, &dev);
  EXPECT_EQ(SupportedOps(direct), atomic);
}

TEST(HostCommandTest, DeviceCapsProbeReplacesConfigPeeking) {
  sim::Simulator sim;
  // A plain block device: hints only, no extended vocabulary.
  SimpleBlockDevice simple(&sim, SimpleDeviceConfig{});
  EXPECT_FALSE(simple.Supports(IoOp::kNamelessWrite));
  EXPECT_FALSE(simple.Supports(IoOp::kNamelessRead));
  EXPECT_FALSE(simple.Supports(IoOp::kNamelessFree));
  EXPECT_FALSE(simple.Supports(IoOp::kAtomicGroup));
  EXPECT_TRUE(simple.Supports(IoOp::kHint));

  // The page-mapped SSD: atomic groups but no names, and the DRAM
  // argument in one number — the device L2P is sized by the *logical
  // space* (8 B per logical page, whether mapped or not).
  ssd::Device dev(&sim, ssd::Config::Small());
  EXPECT_FALSE(dev.Supports(IoOp::kNamelessWrite));
  EXPECT_TRUE(dev.Supports(IoOp::kAtomicGroup));
  EXPECT_EQ(dev.Caps().mapping_table_bytes, dev.num_blocks() * 8);

  // The post-block append device: nameless-only vocabulary, no logical
  // address space behind kRead/kWrite/kTrim.
  ssd::Config acfg = ssd::Config::Small();
  acfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device append_dev(&sim, acfg);
  EXPECT_TRUE(append_dev.Supports(IoOp::kNamelessWrite));
  EXPECT_TRUE(append_dev.Supports(IoOp::kNamelessRead));
  EXPECT_TRUE(append_dev.Supports(IoOp::kNamelessFree));
  EXPECT_FALSE(append_dev.Supports(IoOp::kRead));
  EXPECT_FALSE(append_dev.Supports(IoOp::kWrite));
  EXPECT_FALSE(append_dev.Supports(IoOp::kTrim));
  EXPECT_TRUE(append_dev.Supports(IoOp::kFlush));

  // Layers answer from the device below.
  blocklayer::DirectDriver direct(&sim, &append_dev);
  EXPECT_TRUE(direct.Supports(IoOp::kNamelessWrite));
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
  dev.Submit(IoRequest::NamelessWrite(7, expect_unimpl));
  dev.Submit(IoRequest::NamelessRead(99, expect_unimpl));
  dev.Submit(IoRequest::NamelessFree(99, expect_unimpl));
  dev.Submit(IoRequest::AtomicGroup({{1, 10}, {2, 20}}, expect_unimpl));
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
  append_dev.Submit(IoRequest::Read(0, 1, expect_refused));
  append_dev.Submit(IoRequest::Write(0, {1}, expect_refused));
  sim.Run();
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(append_dev.counters().Get("lba_commands_refused"), 2u);
}

TEST(HostCommandTest, VisionAppendDeviceRefusesBlockOpsBeforeAdmission) {
  // One refusal, in one place: inline, before the request is admitted
  // (no "requests" count, no admission delay), counted once by the
  // device.
  sim::Simulator sim;
  ssd::Config acfg = ssd::Config::Small();
  acfg.ftl = ssd::FtlKind::kVisionAppend;
  ssd::Device dev(&sim, acfg);
  Status st = Status::Ok();
  bool fired = false;
  dev.Submit(IoRequest::Read(0, 1, [&](const IoResult& r) {
    fired = true;
    st = r.status;
  }));
  EXPECT_TRUE(fired);  // inline, at t = 0
  sim.Run();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(dev.counters().Get("requests"), 0u);
  EXPECT_EQ(dev.counters().Get("lba_commands_refused"), 1u);
  EXPECT_EQ(dev.ftl()->counters().Get("lba_commands_refused"), 0u);
}

// --- Block ops on a plain block device ------------------------------------

TEST(HostCommandTest, BlockOpsRoundTripThroughSubmit) {
  sim::Simulator sim;
  SimpleBlockDevice dev(&sim, SimpleDeviceConfig{});
  Status wst = Status::Internal("pending");
  dev.Submit(IoRequest::Write(
      7, {1234}, [&wst](const IoResult& r) { wst = r.status; }));
  sim.Run();
  EXPECT_TRUE(wst.ok());
  Tokens tokens;
  dev.Submit(IoRequest::Read(7, 1, [&tokens](const IoResult& r) {
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
  dev.Submit(IoRequest::Hint(
      blocklayer::HintKind::kSequential,
      [&hint_ok](const IoResult& r) { hint_ok = r.status.ok(); }));
  EXPECT_TRUE(hint_ok);  // hints are advisory: inline, never fail

  Status st = Status::Ok();
  dev.Submit(IoRequest::AtomicGroup(
      {{1, 10}, {2, 20}}, [&st](const IoResult& r) { st = r.status; }));
  EXPECT_TRUE(st.code() == StatusCode::kUnimplemented);  // a block device cannot name this
}

// --- Extended commands on the SSD ----------------------------------------

TEST(HostCommandTest, AtomicGroupWritesAllExtentsTogether) {
  sim::Simulator sim;
  ssd::Device dev(&sim, ssd::Config::Small());
  Status st = Status::Internal("pending");
  dev.Submit(IoRequest::AtomicGroup(
      {{5, 111}, {9, 222}}, [&st](const IoResult& r) { st = r.status; }));
  sim.Run();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(dev.counters().Get("atomic_groups"), 1u);
  std::vector<std::uint64_t> got(2, 0);
  dev.Submit(IoRequest::Read(5, 1, [&got](const IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    got[0] = r.tokens[0];
  }));
  dev.Submit(IoRequest::Read(9, 1, [&got](const IoResult& r) {
    ASSERT_TRUE(r.status.ok());
    got[1] = r.tokens[0];
  }));
  sim.Run();
  EXPECT_EQ(got[0], 111u);
  EXPECT_EQ(got[1], 222u);
}

TEST(HostCommandTest, NamelessWriteReturnsDeviceChosenName) {
  sim::Simulator sim;
  ssd::Device dev(&sim, SmallConfig(ssd::FtlKind::kVisionAppend));
  std::vector<std::uint64_t> names;
  Status st = Status::Internal("pending");
  for (int i = 0; i < 2; ++i) {
    dev.Submit(IoRequest::NamelessWrite(
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
  layer.Submit(IoRequest::AtomicGroup(
      {{3, 33}}, [&st](const IoResult& r) { st = r.status; }));
  sim.Run();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(layer.counters().Get("passthrough_cmds"), 1u);
  EXPECT_EQ(dev.counters().Get("atomic_groups"), 1u);
  // Queued kinds still pay the block layer, not the passthrough.
  bool read_ok = false;
  layer.Submit(IoRequest::Read(
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
  layer.Submit(IoRequest::NamelessWrite(
      5, [&st](const IoResult& r) { st = r.status; }));
  EXPECT_TRUE(st.code() == StatusCode::kUnimplemented);
}

TEST(HostCommandTest, DirectDriverPassesExtendedCommandsThrough) {
  sim::Simulator sim;
  ssd::Device dev(&sim, SmallConfig(ssd::FtlKind::kVisionAppend));
  blocklayer::DirectDriver direct(&sim, &dev);
  Status st = Status::Internal("pending");
  std::uint64_t name = 0;
  direct.Submit(IoRequest::NamelessWrite(77, [&](const IoResult& r) {
    st = r.status;
    if (r.status.ok()) name = r.tokens[0];
  }));
  sim.Run();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(direct.counters().Get("passthrough_cmds"), 1u);
  EXPECT_EQ(dev.counters().Get("nameless_writes"), 1u);
  (void)name;
}

// --- Capability contract: every layer, every op ---------------------------
//
// Every HostInterface implementation in src/, over a page-map and over a
// vision-append device where it stacks, and every op: the answer a host
// gets from Supports must match what a submission does — Unimplemented
// exactly when the op is disclaimed — and the callback fires exactly
// once.

// One stack under test, owning every layer it is built from.
struct ContractStack {
  std::vector<std::shared_ptr<void>> parts;
  host::HostInterface* top = nullptr;

  template <typename T, typename... Args>
  T* Add(Args&&... args) {
    auto p = std::make_shared<T>(std::forward<Args>(args)...);
    parts.push_back(p);
    return p.get();
  }
};

ssd::Device* AddDevice(ContractStack& s, sim::Simulator* sim,
                       ssd::FtlKind ftl) {
  return s.Add<ssd::Device>(sim, SmallConfig(ftl));
}

const std::string kContractStacks[] = {
    "simple",      "hdd",           "ssd_page",       "ssd_block",
    "ssd_append",  "blocklayer_page", "blocklayer_append",
    "direct_page", "direct_append", "vbd_page",       "vbd_append",
    "hostmap",
};

ContractStack BuildStack(const std::string& name, sim::Simulator* sim) {
  ContractStack s;
  const bool append =
      name.find("append") != std::string::npos || name == "hostmap";
  const ssd::FtlKind ftl =
      append ? ssd::FtlKind::kVisionAppend : ssd::FtlKind::kPageMap;
  if (name == "simple") {
    s.top = s.Add<SimpleBlockDevice>(sim, SimpleDeviceConfig{});
  } else if (name == "hdd") {
    s.top = s.Add<hdd::Hdd>(sim);
  } else if (name == "ssd_block") {
    s.top = AddDevice(s, sim, ssd::FtlKind::kBlockMap);
  } else if (name.rfind("ssd_", 0) == 0) {
    s.top = AddDevice(s, sim, ftl);
  } else if (name.rfind("blocklayer_", 0) == 0) {
    s.top = s.Add<BlockLayer>(sim, AddDevice(s, sim, ftl),
                              BlockLayerConfig{});
  } else if (name.rfind("direct_", 0) == 0) {
    s.top = s.Add<blocklayer::DirectDriver>(sim, AddDevice(s, sim, ftl));
  } else if (name.rfind("vbd_", 0) == 0) {
    auto* backend = s.Add<vbd::Backend>(sim, AddDevice(s, sim, ftl));
    vbd::TenantConfig tc;
    tc.capacity_blocks = 64;
    auto fe = backend->CreateTenant(tc);
    EXPECT_TRUE(fe.ok());
    s.top = *fe;
  } else if (name == "hostmap") {
    ssd::Device* dev = AddDevice(s, sim, ftl);
    s.top = s.Add<db::HostMap>(sim, dev, 64, dev->block_bytes());
  }
  return s;
}

IoRequest ContractRequest(IoOp op, IoCallback cb) {
  switch (op) {
    case IoOp::kRead:
      return IoRequest::Read(0, 1, std::move(cb));
    case IoOp::kWrite:
      return IoRequest::Write(0, {1}, std::move(cb));
    case IoOp::kTrim:
      return IoRequest::Trim(0, 1, std::move(cb));
    case IoOp::kFlush:
      return IoRequest::Flush(std::move(cb));
    case IoOp::kAtomicGroup:
      return IoRequest::AtomicGroup({{0, 1}}, std::move(cb));
    case IoOp::kNamelessWrite:
      return IoRequest::NamelessWrite(1, std::move(cb));
    case IoOp::kHint:
      return IoRequest::Hint(blocklayer::HintKind::kSequential,
                             std::move(cb));
    case IoOp::kNamelessRead:
      return IoRequest::NamelessRead(0, std::move(cb));
    case IoOp::kNamelessFree:
      return IoRequest::NamelessFree(0, std::move(cb));
  }
  return IoRequest{};
}

// Indexed by IoOp.
const char* const kContractOpNames[] = {
    "read",           "write", "trim",          "flush",        "atomic_group",
    "nameless_write", "hint",  "nameless_read", "nameless_free"};

class CapabilityContractTest
    : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CapabilityContractTest, AnswerMatchesBehaviour) {
  const std::string stack_name = std::get<0>(GetParam());
  const auto op = static_cast<IoOp>(std::get<1>(GetParam()));
  sim::Simulator sim;
  ContractStack stack = BuildStack(stack_name, &sim);
  ASSERT_NE(stack.top, nullptr);
  sim.Run();  // settle construction-time work

  const bool supported = stack.top->Supports(op);
  int fired = 0;
  Status status = Status::Internal("never completed");
  stack.top->Submit(ContractRequest(op, [&fired, &status](const IoResult& r) {
    ++fired;
    status = r.status;
  }));
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(status.code() == StatusCode::kUnimplemented, !supported)
      << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayerEveryOp, CapabilityContractTest,
    testing::Combine(
        testing::ValuesIn(kContractStacks),
        testing::Range(0, static_cast<int>(blocklayer::kNumIoOps))),
    [](const testing::TestParamInfo<CapabilityContractTest::ParamType>& p) {
      return std::get<0>(p.param) + "_" +
             kContractOpNames[std::get<1>(p.param)];
    });

// --- Range checks at the top of the LBA space ------------------------------
//
// A write whose extent runs past LBA 2^64 - 1 wraps `lba + nblocks` back
// to a small number. Every stack that takes block writes must still
// refuse it OutOfRange and leave LBA 0 alone; the rest refuse it
// Unimplemented, before any range check.

class RangeCheckTest : public testing::TestWithParam<std::string> {};

TEST_P(RangeCheckTest, WritePastTopLbaIsOutOfRangeAndLeavesLbaZero) {
  sim::Simulator sim;
  ContractStack stack = BuildStack(GetParam(), &sim);
  ASSERT_NE(stack.top, nullptr);
  sim.Run();  // settle construction-time work
  const auto run = [&sim, &stack](IoRequest request) {
    IoResult out{Status::Internal("never completed"), {}};
    request.on_complete = [&out](const IoResult& r) { out = r; };
    stack.top->Submit(std::move(request));
    sim.Run();
    return out;
  };
  const Lba top = ~Lba{0};
  if (!stack.top->Supports(IoOp::kWrite)) {
    const StatusCode code =
        run(IoRequest::Write(top, {999, 222}, {})).status.code();
    EXPECT_EQ(code, StatusCode::kUnimplemented) << static_cast<int>(code);
    return;
  }
  ASSERT_TRUE(run(IoRequest::Write(0, {111}, {})).status.ok());
  const IoResult wrapped = run(IoRequest::Write(top, {999, 222}, {}));
  EXPECT_EQ(wrapped.status.code(), StatusCode::kOutOfRange)
      << wrapped.status.ToString();
  const IoResult read = run(IoRequest::Read(0, 1, {}));
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  ASSERT_EQ(read.tokens.size(), 1u);
  EXPECT_EQ(read.tokens[0], 111u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayer, RangeCheckTest, testing::ValuesIn(kContractStacks),
    [](const testing::TestParamInfo<RangeCheckTest::ParamType>& p) {
      return p.param;
    });

// --- One device, both vocabularies -----------------------------------------
//
// The contract above sends one op to a fresh stack. These send both
// vocabularies to one device of every FTL kind, with and without a write
// buffer, in orders where a name and a block address, or an atomic group
// and a buffered write, could end up meaning the same page. Each op must
// either do its own job or be refused Unimplemented through Supports.

class MixedVocabularyTest
    : public testing::TestWithParam<std::tuple<ssd::FtlKind, bool>> {
 protected:
  MixedVocabularyTest() : dev_(&sim_, DeviceConfig()) {}

  static ssd::Config DeviceConfig() {
    ssd::Config c = SmallConfig(std::get<0>(GetParam()));
    if (std::get<1>(GetParam())) c.write_buffer.pages = 64;
    return c;
  }

  // Runs until `request` completes, and on until the device is idle
  // (write buffer drained) when `settle`. Checks the refusal against
  // Supports, then returns the first result token — a name or a payload
  // — or the status.
  StatusOr<std::uint64_t> Run(IoRequest request, bool settle = true) {
    const IoOp op = request.op;
    int fired = 0;
    StatusOr<std::uint64_t> out = Status::Internal("never completed");
    request.on_complete = [&fired, &out](const IoResult& r) {
      ++fired;
      if (r.status.ok()) {
        out = r.tokens.empty() ? 0 : r.tokens[0];
      } else {
        out = r.status;
      }
    };
    dev_.Submit(std::move(request));
    EXPECT_TRUE(sim_.RunUntilPredicate([&fired] { return fired > 0; }));
    if (settle) sim_.Run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(out.status().code() == StatusCode::kUnimplemented,
              !dev_.Supports(op))
        << out.status().ToString();
    return out;
  }

  // A supported read must return `want`; a refused one was checked by
  // Run.
  static void ExpectPayload(const StatusOr<std::uint64_t>& got,
                            bool supported, std::uint64_t want) {
    if (!supported) return;
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }

  sim::Simulator sim_;
  ssd::Device dev_;
};

TEST_P(MixedVocabularyTest, NamesAndLbasNeverAlias) {
  const bool named = dev_.Supports(IoOp::kNamelessWrite);
  const bool block = dev_.Supports(IoOp::kWrite);
  const StatusOr<std::uint64_t> name = Run(IoRequest::NamelessWrite(111, {}));
  ASSERT_EQ(name.ok(), named) << name.status().ToString();
  const std::uint64_t n = named ? *name : 0;
  EXPECT_EQ(Run(IoRequest::Write(0, {222}, {})).ok(), block);
  ExpectPayload(Run(IoRequest::NamelessRead(n, {})), named, 111);
  ExpectPayload(Run(IoRequest::Read(0, 1, {})), block, 222);
  EXPECT_EQ(Run(IoRequest::NamelessFree(n, {})).ok(), named);
  ExpectPayload(Run(IoRequest::Read(0, 1, {})), block, 222);
}

TEST_P(MixedVocabularyTest, AtomicGroupOrdersAfterAcknowledgedWrites) {
  const bool block = dev_.Supports(IoOp::kWrite);
  const bool atomic = dev_.Supports(IoOp::kAtomicGroup);
  // 60 writes ahead of them keep the writes of LBAs 5 and 6 queued in a
  // buffer after their acknowledgement.
  for (Lba lba = 100; lba < 160; ++lba) {
    dev_.Submit(IoRequest::Write(lba, {lba}, [](const IoResult&) {}));
  }
  EXPECT_EQ(Run(IoRequest::Write(5, {111}, {}), /*settle=*/false).ok(),
            block);
  EXPECT_EQ(Run(IoRequest::Write(6, {112}, {}), false).ok(), block);
  std::uint64_t buffered = 0;
  if (block && dev_.write_buffer() != nullptr) {
    ASSERT_TRUE(dev_.write_buffer()->Lookup(5, &buffered));
    ASSERT_TRUE(dev_.write_buffer()->Lookup(6, &buffered));
  }
  // A group supersedes them; a group the device refuses (one extent is
  // beyond it) leaves them be.
  EXPECT_EQ(Run(IoRequest::AtomicGroup({{5, 222}}, {}), false).ok(), atomic);
  EXPECT_FALSE(Run(IoRequest::AtomicGroup({{6, 333}, {dev_.num_blocks(), 1}},
                                          {}),
                   false)
                   .ok());
  const std::uint64_t want5 = atomic ? 222 : 111;
  ExpectPayload(Run(IoRequest::Read(5, 1, {}), false), block, want5);
  ExpectPayload(Run(IoRequest::Read(6, 1, {}), false), block, 112);
  sim_.Run();  // drain the buffer
  ExpectPayload(Run(IoRequest::Read(5, 1, {})), block, want5);
  ExpectPayload(Run(IoRequest::Read(6, 1, {})), block, 112);
}

// Indexed by FtlKind.
const char* const kFtlNames[] = {"page", "block", "hybrid", "dftl", "append"};

INSTANTIATE_TEST_SUITE_P(
    EveryFtl, MixedVocabularyTest,
    testing::Combine(testing::Values(ssd::FtlKind::kPageMap,
                                     ssd::FtlKind::kBlockMap,
                                     ssd::FtlKind::kHybrid,
                                     ssd::FtlKind::kDftl,
                                     ssd::FtlKind::kVisionAppend),
                     testing::Bool()),
    [](const testing::TestParamInfo<MixedVocabularyTest::ParamType>& p) {
      return std::string(kFtlNames[static_cast<int>(std::get<0>(p.param))]) +
             (std::get<1>(p.param) ? "_buffered" : "_unbuffered");
    });

}  // namespace
}  // namespace postblock
