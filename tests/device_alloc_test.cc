// Zero-allocation gate for the full device IO path: after a warm-up, an
// aged fig2-class ssd::Device (page-mapping FTL with GC running, QD 32,
// 30% writes) makes no heap allocation per IO. The only allocations a
// host IO may cost are the caller's own write-token vectors, which this
// test builds with the counter paused. What remains is capacity growth:
// a ring, pool or event-wheel slot reaching a new high-water mark, a
// handful per ten thousand IOs and falling — so the gate is "rounds to
// zero", two orders of magnitude below a single allocating call site.
//
// Its own binary: the global operator new below counts every heap
// allocation in the process.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/device.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
thread_local bool g_paused = false;
}  // namespace

void* operator new(std::size_t n) {
  if (!g_paused) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (!g_paused) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() applied to a pointer it
// knows came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace postblock::ssd {
namespace {

using blocklayer::IoOp;
using blocklayer::IoRequest;
using blocklayer::IoResult;

/// Closed-loop client: `depth` slots, each issuing its next IO from its
/// previous IO's completion. Completions capture only the slot pointer.
class Loop {
 public:
  Loop(sim::Simulator* sim, Device* dev, std::uint32_t depth,
       std::uint64_t seed)
      : sim_(sim), dev_(dev), rng_(seed), slots_(depth) {
    for (Slot& s : slots_) s.loop = this;
  }

  /// Runs `ops` IOs with `write_fraction` writes; returns failures.
  std::uint64_t Run(std::uint64_t ops, double write_fraction) {
    quota_ = ops;
    issued_ = done_ = failed_ = 0;
    write_fraction_ = write_fraction;
    for (Slot& s : slots_) Issue(&s);
    sim_->RunUntilPredicate([this] { return done_ >= quota_; });
    return failed_;
  }

 private:
  struct Slot {
    Loop* loop = nullptr;
  };

  void Issue(Slot* slot) {
    if (issued_ >= quota_) return;
    ++issued_;
    IoRequest req;
    const bool write = rng_.Bernoulli(write_fraction_);
    req.op = write ? IoOp::kWrite : IoOp::kRead;
    req.lba = rng_.Uniform(dev_->num_blocks());
    req.nblocks = 1;
    if (write) {
      g_paused = true;  // the caller's payload, not the device's cost
      req.tokens.assign(1, ++token_);
      g_paused = false;
    }
    req.on_complete = [slot](const IoResult& r) {
      slot->loop->OnDone(slot, r);
    };
    dev_->Submit(std::move(req));
  }

  void OnDone(Slot* slot, const IoResult& r) {
    ++done_;
    if (!r.status.ok()) ++failed_;
    Issue(slot);
  }

  sim::Simulator* sim_;
  Device* dev_;
  Rng rng_;
  std::vector<Slot> slots_;
  std::uint64_t quota_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t token_ = 0;
  double write_fraction_ = 0;
};

Config AgedFig2Config() {
  Config c = Config::Consumer2012();
  c.geometry.pages_per_block = 16;
  c.geometry.blocks_per_plane = 32;
  c.over_provisioning = 0.10;
  return c;
}

TEST(DeviceAllocTest, AgedMixedIoMakesNoHeapAllocations) {
  sim::Simulator sim;
  Device dev(&sim, AgedFig2Config());
  const std::uint64_t n = dev.num_blocks();
  Loop loop(&sim, &dev, /*depth=*/32, /*seed=*/7);
  // Age: overwrite twice the capacity at random, so every LUN runs GC.
  ASSERT_EQ(loop.Run(3 * n, 1.0), 0u);
  // Warm-up: pools, rings and scratch vectors reach their working size.
  ASSERT_EQ(loop.Run(20'000, 0.30), 0u);

  const std::uint64_t gc0 = dev.ftl()->counters().Get("gc_runs");
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  constexpr std::uint64_t kOps = 20'000;
  const std::uint64_t failed = loop.Run(kOps, 0.30);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  EXPECT_EQ(failed, 0u);
  EXPECT_GT(dev.ftl()->counters().Get("gc_runs"), gc0)
      << "the measured window must include garbage collection";
  EXPECT_LT(allocs, kOps / 500) << static_cast<double>(allocs) / kOps
                                << " heap allocations per IO";
}

}  // namespace
}  // namespace postblock::ssd
