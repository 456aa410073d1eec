#ifndef POSTBLOCK_DB_PAGE_H_
#define POSTBLOCK_DB_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"

namespace postblock::db {

/// Database pages are one logical block (4 KiB by default).
using PageId = std::uint64_t;
inline constexpr PageId kInvalidPageId = ~0ull;
inline constexpr std::uint32_t kPageBytes = 4096;

/// On-page object kinds (first byte of every page).
enum class PageType : std::uint8_t {
  kFree = 0,
  kMeta,
  kBTreeLeaf,
  kBTreeInternal,
  kHeap,
};

/// Little-endian field accessors over a raw page buffer. The database
/// serializes everything explicitly — pages are bytes on a device, not
/// C++ objects.
class PageView {
 public:
  explicit PageView(std::vector<std::uint8_t>* bytes) : bytes_(bytes) {}

  std::uint8_t ReadU8(std::size_t off) const { return (*bytes_)[off]; }
  void WriteU8(std::size_t off, std::uint8_t v) { (*bytes_)[off] = v; }

  std::uint64_t ReadU64(std::size_t off) const {
    std::uint64_t v;
    std::memcpy(&v, bytes_->data() + off, sizeof(v));
    return v;
  }
  void WriteU64(std::size_t off, std::uint64_t v) {
    std::memcpy(bytes_->data() + off, &v, sizeof(v));
  }

  PageType type() const { return static_cast<PageType>(ReadU8(0)); }
  void set_type(PageType t) {
    WriteU8(0, static_cast<std::uint8_t>(t));
  }

 private:
  std::vector<std::uint8_t>* bytes_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_PAGE_H_
