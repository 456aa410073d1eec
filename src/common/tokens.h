#ifndef POSTBLOCK_COMMON_TOKENS_H_
#define POSTBLOCK_COMMON_TOKENS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include "common/check.h"

namespace postblock {

/// The payload of one block IO: one 64-bit content stamp per logical
/// block (postblock models page contents as stamps; see
/// flash::PageData). Almost every IO carries at most one — a 1-block
/// write, a nameless write, the name a nameless write returns — so the
/// first token lives inline and only a multi-block IO or a merged
/// request spills to the heap. clear(), assign() and copy-assignment
/// keep a spilled buffer, so a pooled result reused across IOs stays
/// allocation-free once it has reached its high-water size.
///
/// The inline token and the heap pointer share storage and the object
/// holds no pointer into itself, so it relocates by memcpy (as the
/// captures of sim::InplaceFunction do). A moved-from object is empty.
/// It exposes the subset of the std::vector API the tree uses;
/// conversions to and from std::vector are explicit, since each one
/// copies.
class Tokens {
 public:
  using value_type = std::uint64_t;
  using size_type = std::size_t;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  Tokens() noexcept = default;
  Tokens(size_type n, value_type v) { assign(n, v); }
  Tokens(std::initializer_list<value_type> init) {
    assign(init.begin(), init.end());
  }
  explicit Tokens(const std::vector<value_type>& v) {
    assign(v.data(), v.data() + v.size());
  }
  Tokens(const Tokens& other) { assign(other.begin(), other.end()); }
  Tokens(Tokens&& other) noexcept
      : size_(other.size_), cap_(other.cap_), u_(other.u_) {
    other.Reset();
  }
  ~Tokens() { Free(); }

  Tokens& operator=(const Tokens& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  Tokens& operator=(Tokens&& other) noexcept {
    if (this == &other) return *this;
    if (other.spilled()) {
      Free();
      size_ = other.size_;
      cap_ = other.cap_;
      u_ = other.u_;
    } else {
      assign(other.begin(), other.end());  // one token at most: no allocation
    }
    other.Reset();
    return *this;
  }
  Tokens& operator=(std::initializer_list<value_type> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  explicit operator std::vector<value_type>() const {
    return std::vector<value_type>(begin(), end());
  }

  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_type capacity() const { return cap_; }

  value_type* data() { return spilled() ? u_.heap : &u_.one; }
  const value_type* data() const { return spilled() ? u_.heap : &u_.one; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  value_type& operator[](size_type i) { return data()[i]; }
  const value_type& operator[](size_type i) const { return data()[i]; }

  void clear() { size_ = 0; }
  void reserve(size_type n) {
    if (n > cap_) Grow(n);
  }
  void push_back(value_type v) {
    if (size_ == cap_) Grow(2 * size_type{cap_});
    data()[size_++] = v;
  }
  void resize(size_type n, value_type v = 0) {
    reserve(n);
    if (n > size_) std::fill(end(), data() + n, v);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(size_type n, value_type v) {
    Fit(n);
    std::fill_n(data(), n, v);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(const value_type* first, const value_type* last) {
    const auto n = static_cast<size_type>(last - first);
    Fit(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const Tokens& a, const Tokens& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool spilled() const { return cap_ > 1; }
  void Reset() {
    size_ = 0;
    cap_ = 1;
    u_.one = 0;
  }
  void Free() {
    if (spilled()) delete[] u_.heap;
  }
  /// Every size and capacity past the inline token passes through here,
  /// so the 32-bit fields below cannot truncate.
  static value_type* Allocate(size_type n) {
    PB_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             "more tokens than an IO can carry");
    return new value_type[n];
  }
  /// Room for `n` tokens; the contents may be discarded.
  void Fit(size_type n) {
    if (n <= cap_) return;
    value_type* heap = Allocate(n);
    Free();
    u_.heap = heap;
    cap_ = static_cast<std::uint32_t>(n);
  }
  /// Room for `n` tokens, keeping the contents.
  void Grow(size_type n) {
    value_type* heap = Allocate(n);
    std::copy(begin(), end(), heap);
    Free();
    u_.heap = heap;
    cap_ = static_cast<std::uint32_t>(n);
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 1;  // 1: the inline token; > 1: a heap buffer
  union Storage {
    value_type one;
    value_type* heap;
  } u_{0};
};

}  // namespace postblock

#endif  // POSTBLOCK_COMMON_TOKENS_H_
