// Tokens, the IO payload type: one token inline, the heap only past
// one, and a spilled buffer that clear/assign/copy-assign keep.
//
// Its own binary: the global operator new below counts every heap
// allocation in the process.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/tokens.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line, so the compiler never matches the malloc() and free()
// below against the new-expressions it inlines from Tokens
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace postblock {
namespace {

std::uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

static_assert(sizeof(Tokens) <= sizeof(std::vector<std::uint64_t>));
static_assert(!std::is_convertible_v<std::vector<std::uint64_t>, Tokens>);
static_assert(!std::is_convertible_v<Tokens, std::vector<std::uint64_t>>);
static_assert(std::is_constructible_v<Tokens, std::vector<std::uint64_t>>);
static_assert(std::is_constructible_v<std::vector<std::uint64_t>, Tokens>);

/// Eight tokens 10..17: a spilled object.
Tokens Spilled() {
  Tokens t;
  for (std::uint64_t v = 10; v < 18; ++v) t.push_back(v);
  return t;
}

TEST(TokensTest, OneTokenAllocatesNothing) {
  const std::uint64_t a0 = Allocs();
  Tokens constructed(1, 7);
  Tokens braced{7};
  Tokens assigned;
  assigned.assign(1, 7);
  Tokens list_assigned;
  list_assigned = {7};
  Tokens pushed;
  pushed.push_back(7);
  Tokens copied(constructed);
  Tokens copy_assigned;
  copy_assigned = braced;
  Tokens moved(std::move(assigned));
  Tokens move_assigned;
  move_assigned = std::move(list_assigned);
  const std::uint64_t allocs = Allocs() - a0;

  EXPECT_EQ(allocs, 0u);
  for (const Tokens* t : {&constructed, &braced, &pushed, &copied,
                          &copy_assigned, &moved, &move_assigned}) {
    ASSERT_EQ(t->size(), 1u);
    EXPECT_EQ((*t)[0], 7u);
    EXPECT_EQ(t->capacity(), 1u);
  }
}

TEST(TokensTest, SpillsAndGrowsPastOneToken) {
  Tokens t{1};
  const std::uint64_t a0 = Allocs();
  t.push_back(2);
  EXPECT_EQ(Allocs() - a0, 1u) << "the second token spills";
  for (std::uint64_t v = 3; v <= 100; ++v) t.push_back(v);
  ASSERT_EQ(t.size(), 100u);
  EXPECT_GE(t.capacity(), 100u);
  for (std::uint64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], i + 1);

  Tokens sized(5, 9);
  EXPECT_EQ(sized.size(), 5u);
  sized.resize(7, 3);
  EXPECT_EQ(sized, (Tokens{9, 9, 9, 9, 9, 3, 3}));
  sized.resize(2);
  EXPECT_EQ(sized, (Tokens{9, 9}));
}

TEST(TokensTest, ClearAndAssignKeepASpilledBuffer) {
  Tokens t = Spilled();
  const std::uint64_t* buffer = t.data();
  const std::size_t capacity = t.capacity();
  const std::uint64_t a0 = Allocs();
  t.clear();
  const bool cleared = t.empty();
  t.assign(1, 5);
  const Tokens one = t;  // an inline copy: allocates nothing either
  t = {1, 2, 3};
  const std::uint64_t src[] = {4, 5, 6, 7};
  t.assign(src, src + 4);
  const std::uint64_t allocs = Allocs() - a0;

  EXPECT_TRUE(cleared);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(one, (Tokens{5}));
  EXPECT_EQ(t, (Tokens{4, 5, 6, 7}));
  EXPECT_EQ(t.data(), buffer);
  EXPECT_EQ(t.capacity(), capacity);
}

TEST(TokensTest, MovedFromIsEmpty) {
  Tokens inline_src{3};
  Tokens a(std::move(inline_src));
  EXPECT_TRUE(inline_src.empty());
  EXPECT_EQ(a, (Tokens{3}));

  Tokens spilled_src = Spilled();
  const std::uint64_t* buffer = spilled_src.data();
  Tokens b(std::move(spilled_src));
  EXPECT_TRUE(spilled_src.empty());
  EXPECT_EQ(spilled_src.capacity(), 1u);
  EXPECT_EQ(b.data(), buffer) << "a move steals the buffer";

  Tokens c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c, Spilled());

  // A moved-from object is reusable.
  b.push_back(8);
  EXPECT_EQ(b, (Tokens{8}));
}

TEST(TokensTest, CopyAssignIntoASpilledObjectReusesItsBuffer) {
  Tokens dst = Spilled();
  const std::uint64_t* buffer = dst.data();
  const Tokens src{1, 2, 3, 4, 5};
  const std::uint64_t a0 = Allocs();
  dst = src;
  const std::uint64_t allocs = Allocs() - a0;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(dst.data(), buffer);

  // Moving one inline token in keeps the buffer too.
  dst = Tokens{6};
  EXPECT_EQ(dst, (Tokens{6}));
  EXPECT_EQ(dst.data(), buffer);
}

TEST(TokensTest, EqualityComparesContents) {
  EXPECT_EQ((Tokens{1, 2}), (Tokens{1, 2}));
  EXPECT_NE((Tokens{1, 2}), (Tokens{1, 3}));
  EXPECT_NE((Tokens{1, 2}), (Tokens{1}));
  EXPECT_EQ(Tokens{}, Tokens());
  Tokens spilled = Spilled();
  spilled.assign(1, 7);
  EXPECT_EQ(spilled, (Tokens{7})) << "capacity is not compared";
}

TEST(TokensTest, ConvertsToAndFromVectorExplicitly) {
  const std::vector<std::uint64_t> v = {4, 5, 6};
  const Tokens t(v);
  EXPECT_EQ(t, (Tokens{4, 5, 6}));
  EXPECT_EQ(static_cast<std::vector<std::uint64_t>>(t), v);
}

TEST(TokensTest, RelocatesByMemcpy) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}}) {
    alignas(Tokens) unsigned char from[sizeof(Tokens)];
    alignas(Tokens) unsigned char to[sizeof(Tokens)];
    new (from) Tokens(n, 9);
    std::memcpy(to, from, sizeof(Tokens));
    std::memset(from, 0xab, sizeof(Tokens));  // the old bytes are gone
    Tokens* moved = std::launder(reinterpret_cast<Tokens*>(to));
    EXPECT_EQ(*moved, Tokens(n, 9)) << n << " tokens";
    moved->~Tokens();
  }
}

}  // namespace
}  // namespace postblock
