// Unit tests for InplaceFunction (InplaceCallback is its void()
// instance) and its CallbackSlab fallback: inline storage for small
// captures, move-only semantics, slab boxing for oversized captures,
// argument-taking signatures, and compile-time guards that the
// hot-path capture sizes keep fitting.

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/status.h"
#include "sim/inplace_callback.h"
#include "sim/simulator.h"

namespace postblock::sim {
namespace {

TEST(InplaceCallbackTest, EmptyIsFalsey) {
  InplaceCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceCallbackTest, SmallCaptureStoredInline) {
  int hits = 0;
  InplaceCallback cb = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.stored_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceCallbackTest, FullInlineBufferStillInline) {
  // Exactly kInlineBytes of capture must not spill to the slab.
  std::array<std::uint64_t, 6> payload{1, 2, 3, 4, 5, 6};
  static_assert(sizeof(payload) == InplaceCallback::kInlineBytes);
  std::uint64_t sum = 0;
  auto fn = [payload, &sum]() mutable {
    for (auto v : payload) sum += v;
  };
  static_assert(!InplaceCallback::fits<decltype(fn)>(),
                "payload + reference exceeds the buffer");
  std::uint64_t sum2 = 0;
  std::uint64_t* out = &sum2;
  auto fits_fn = [payload = std::array<std::uint64_t, 5>{1, 2, 3, 4, 5},
                  out] {
    for (auto v : payload) *out += v;
  };
  static_assert(InplaceCallback::fits<decltype(fits_fn)>());
  InplaceCallback cb = fits_fn;
  EXPECT_TRUE(cb.stored_inline());
  cb();
  EXPECT_EQ(sum2, 15u);
}

TEST(InplaceCallbackTest, MoveOnlyCaptureWorks) {
  auto box = std::make_unique<int>(41);
  int result = 0;
  InplaceCallback cb = [box = std::move(box), &result] {
    result = *box + 1;
  };
  EXPECT_TRUE(cb.stored_inline());
  InplaceCallback moved = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(result, 42);
}

/// Counts its own destruction (a moved-from copy does not count).
struct Sentinel {
  int* counter;
  explicit Sentinel(int* c) : counter(c) {}
  Sentinel(Sentinel&& o) noexcept
      : counter(std::exchange(o.counter, nullptr)) {}
  ~Sentinel() {
    if (counter != nullptr) ++*counter;
  }
};

TEST(InplaceCallbackTest, MoveAssignReleasesPreviousCallable) {
  int destroyed = 0;
  InplaceCallback cb = [s = Sentinel(&destroyed)] { (void)s; };
  cb = InplaceCallback([] {});
  EXPECT_EQ(destroyed, 1);
}

TEST(InplaceCallbackTest, EmplaceReplacesTargetInPlace) {
  // Emplace (how the event queue fills a node) releases the previous
  // target, constructs the new one without a relocation, and takes
  // another InplaceCallback by move.
  int destroyed = 0;
  int moves = 0;
  struct Counted {
    int* count;
    explicit Counted(int* c) : count(c) {}
    Counted(Counted&& o) noexcept : count(o.count) { ++*count; }
    void operator()() const {}
  };
  InplaceCallback cb = [s = Sentinel(&destroyed)] { (void)s; };
  Counted counted(&moves);
  cb.Emplace(std::move(counted));
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(moves, 1);  // moved into the buffer once, never relocated
  int hits = 0;
  cb.Emplace(InplaceCallback([&hits] { ++hits; }));
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InplaceCallbackTest, OversizedCaptureFallsBackToSlab) {
  const auto before = CallbackSlab::stats();
  std::array<std::uint64_t, 16> big{};  // 128 bytes: too big for inline
  big[7] = 99;
  std::uint64_t seen = 0;
  std::uint64_t* out = &seen;
  auto fn = [big, out] { *out = big[7]; };
  static_assert(!InplaceCallback::fits<decltype(fn)>());
  {
    InplaceCallback cb = fn;
    EXPECT_TRUE(static_cast<bool>(cb));
    EXPECT_FALSE(cb.stored_inline());
    // Moving a boxed callback moves the box pointer, not the payload.
    InplaceCallback moved = std::move(cb);
    moved();
  }
  EXPECT_EQ(seen, 99u);
  const auto after = CallbackSlab::stats();
  EXPECT_EQ(after.chunk_allocs + after.chunk_reuses,
            before.chunk_allocs + before.chunk_reuses + 1);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);
}

TEST(InplaceCallbackTest, SlabRecyclesChunksInSteadyState) {
  std::array<std::uint64_t, 16> big{};
  auto make = [&big] { return InplaceCallback([big] { (void)big; }); };
  { InplaceCallback warm = make(); }  // leaves one chunk on the free list
  const auto before = CallbackSlab::stats();
  for (int i = 0; i < 100; ++i) {
    InplaceCallback cb = make();
    cb();
  }
  const auto after = CallbackSlab::stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);  // all reuses
  EXPECT_EQ(after.chunk_reuses, before.chunk_reuses + 100);
}

TEST(InplaceCallbackTest, CapturesBeyondChunkSizeStillWork) {
  std::array<std::uint64_t, 64> huge{};  // 512 bytes > kChunkBytes
  huge[63] = 7;
  static_assert(sizeof(huge) > CallbackSlab::kChunkBytes);
  std::uint64_t seen = 0;
  std::uint64_t* out = &seen;
  const auto before = CallbackSlab::stats();
  {
    InplaceCallback cb = [huge, out] { *out = huge[63]; };
    EXPECT_FALSE(cb.stored_inline());
    cb();
  }
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(CallbackSlab::stats().oversize_allocs,
            before.oversize_allocs + 1);
}

// Compile-time guard that the event core's hot-path capture shapes fit
// the inline buffer. The device models capture at most a {this, state*}
// pair or a pooled-record pointer; if someone grows a hot lambda past
// kInlineBytes, this is where the build should break loudly.
TEST(InplaceCallbackTest, HotPathCaptureShapesFitInline) {
  struct Dummy {};
  Dummy* a = nullptr;
  Dummy* b = nullptr;
  auto two_pointers = [a, b] { (void)a; (void)b; };
  static_assert(InplaceCallback::fits<decltype(two_pointers)>());
  auto pooled_record = [a] { (void)a; };
  static_assert(InplaceCallback::fits<decltype(pooled_record)>());
  // The largest sanctioned shape: six 8-byte words.
  auto six_words = [a, b, c = std::uint64_t{0}, d = std::uint64_t{0},
                    e = std::uint64_t{0}, f = std::uint64_t{0}] {
    (void)a; (void)b; (void)c; (void)d; (void)e; (void)f;
  };
  static_assert(InplaceCallback::fits<decltype(six_words)>());
  SUCCEED();
}

TEST(InplaceCallbackTest, SimulatorHotLoopStaysOffTheSlab) {
  // End-to-end: a self-rescheduling chain through the real Simulator
  // must never touch the slab (captures stay inline).
  const auto before = CallbackSlab::stats();
  Simulator sim;
  struct Ctx {
    Simulator* sim;
    int remaining = 10000;
  };
  Ctx ctx{&sim};
  struct Fire {
    static void At(Ctx* c) {
      if (c->remaining-- > 0) {
        c->sim->Schedule(7, [c] { At(c); });
      }
    }
  };
  Fire::At(&ctx);
  sim.Run();
  const auto after = CallbackSlab::stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);
  EXPECT_EQ(after.chunk_reuses, before.chunk_reuses);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);
}

using StatusCallback = InplaceFunction<void(Status)>;

TEST(InplaceFunctionTest, StatusSignatureForwardsTheArgument) {
  Status seen = Status::Internal("unset");
  StatusCallback cb = [&seen](Status st) { seen = std::move(st); };
  EXPECT_TRUE(cb.stored_inline());
  cb(Status::NotFound("gone"));
  EXPECT_TRUE(seen.IsNotFound());
  EXPECT_EQ(seen.message(), "gone");
}

TEST(InplaceFunctionTest, ConstInvocationRunsAMutableTarget) {
  int last = 0;
  StatusCallback cb = [&last, n = 0](const Status&) mutable { last = ++n; };
  const StatusCallback& view = cb;  // completions are invoked via const&
  view(Status::Ok());
  view(Status::Ok());
  EXPECT_EQ(last, 2);
}

TEST(InplaceFunctionTest, BoxedStatusCallbacksRecycleSlabChunks) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: boxed
  big[3] = 1;
  int hits = 0;
  auto make = [&big, &hits] {
    return StatusCallback([big, h = &hits](Status st) {
      if (st.ok()) *h += static_cast<int>(big[3]);
    });
  };
  { StatusCallback warm = make(); }  // leaves one chunk on the free list
  const auto before = CallbackSlab::stats();
  for (int i = 0; i < 100; ++i) {
    StatusCallback cb = make();
    EXPECT_FALSE(cb.stored_inline());
    StatusCallback moved = std::move(cb);
    moved(Status::Ok());
  }
  const auto after = CallbackSlab::stats();
  EXPECT_EQ(hits, 100);
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);  // all reuses
  EXPECT_EQ(after.chunk_reuses, before.chunk_reuses + 100);
}

}  // namespace
}  // namespace postblock::sim
