#ifndef POSTBLOCK_DB_PAGE_IMAGE_H_
#define POSTBLOCK_DB_PAGE_IMAGE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "db/page.h"

namespace postblock::db {

/// Content registry bridging the database's real 4 KiB page bytes and
/// the device simulator's 64-bit payload tokens.
///
/// The flash substrate models page *contents* as one token per page (a
/// deliberate simulation choice, see DESIGN.md): physically, whatever
/// token a read returns corresponds to bytes that are still in the
/// cells. This registry is that correspondence. The database stores
/// bytes here, writes the token through the block stack, and resolves
/// whatever token a later read returns (possibly an older version after
/// a crash) back to bytes.
///
/// An image lives as long as the device can still return it, not
/// forever. Per page id the store keeps the last *acknowledged* image —
/// one the storage manager has seen become durable as part of a
/// checkpoint — plus every image registered after it (writes in flight,
/// or torn by a crash, that a read may still return). Acknowledging
/// (page, t) frees that page's images older than t: once a checkpoint
/// made t durable, the device returns t or something newer for that
/// page, never an older copy. Freed buffers and map nodes are reused by
/// the next Register, so a long run holds a bounded, recycled set.
///
/// Registrations are journaled until acknowledged. A crash forgets the
/// journal (ForgetUnacknowledged) but keeps the images: a torn
/// checkpoint's copies stay until a later acknowledged write of the
/// same page supersedes them.
class PageImageStore {
 public:
  /// Registers one image of page `page`, returning its token (never 0;
  /// token 0 is the "never written / trimmed" all-zeroes page). Tokens
  /// increase with every call.
  std::uint64_t Register(PageId page, const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t token = next_token_++;
    auto [newest, first] = newest_.try_emplace(page, token);
    const std::uint64_t older = first ? 0 : newest->second;
    newest->second = token;
    if (spare_.empty()) {
      images_.emplace(token, Image{page, older, bytes});
    } else {
      auto node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = token;
      node.mapped().page = page;
      node.mapped().older = older;
      node.mapped().bytes.assign(bytes.begin(), bytes.end());
      images_.insert(std::move(node));
    }
    unacked_.emplace_back(page, token);
    return token;
  }

  /// Bytes for a token previously returned by Register. Token 0, or one
  /// this store never issued, yields nullptr (callers substitute a zero
  /// page). A token that was issued but has since been freed means the
  /// device returned a copy this store vouched it never would: that is a
  /// failed check, never a silent zero page.
  const std::vector<std::uint8_t>* Fetch(std::uint64_t token) const {
    if (token == 0 || token >= next_token_) return nullptr;
    auto it = images_.find(token);
    PB_CHECK(it != images_.end(),
             "page image fetched after its page was acknowledged newer");
    return &it->second.bytes;
  }

  /// Acknowledges every journaled registration with token <= `token`:
  /// each (page, t) frees that page's images older than t. Call when a
  /// checkpoint whose writes all registered at or before `token` is
  /// durable.
  void AcknowledgeThrough(std::uint64_t token) {
    std::size_t n = 0;
    while (n < unacked_.size() && unacked_[n].second <= token) {
      FreeOlderThan(unacked_[n].second);
      ++n;
    }
    unacked_.erase(unacked_.begin(),
                   unacked_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// Power loss: the journal of writes awaiting acknowledgement is
  /// forgotten (their checkpoint will never acknowledge them); their
  /// images stay, since a torn write may have landed.
  void ForgetUnacknowledged() { unacked_.clear(); }

  /// The most recently issued token (0 before the first Register).
  std::uint64_t last_token() const { return next_token_ - 1; }

  /// Images held, and distinct page ids ever registered.
  std::size_t size() const { return images_.size(); }
  std::size_t pages() const { return newest_.size(); }

 private:
  struct Image {
    PageId page = kInvalidPageId;
    /// The next-older image of the same page still held (0 = none): each
    /// page's images form a chain from newest to oldest.
    std::uint64_t older = 0;
    std::vector<std::uint8_t> bytes;
  };
  using ImageMap = std::unordered_map<std::uint64_t, Image>;

  /// Frees every image of `token`'s page that is older than `token`.
  void FreeOlderThan(std::uint64_t token) {
    auto it = images_.find(token);
    if (it == images_.end()) return;  // already superseded
    std::uint64_t older = std::exchange(it->second.older, 0);
    while (older != 0) {
      auto node = images_.extract(older);
      older = node.mapped().older;
      spare_.push_back(std::move(node));
    }
  }

  std::uint64_t next_token_ = 1;
  ImageMap images_;
  /// Newest token registered per page id (the head of its chain).
  std::unordered_map<PageId, std::uint64_t> newest_;
  /// Registrations not yet acknowledged, in token order.
  std::vector<std::pair<PageId, std::uint64_t>> unacked_;
  /// Freed nodes, buffers included, for Register to reuse.
  std::vector<ImageMap::node_type> spare_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_PAGE_IMAGE_H_
