#ifndef POSTBLOCK_FLASH_PAGE_STORE_H_
#define POSTBLOCK_FLASH_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"
#include "flash/address.h"
#include "flash/geometry.h"

namespace postblock::flash {

/// State of one physical flash page.
enum class PageState : std::uint8_t {
  kFree = 0,   // erased, programmable
  kValid,      // programmed, holds live data
  kInvalid,    // programmed, data superseded (awaiting GC)
};

/// Content of one programmed page. `lba`/`seq` model the out-of-band
/// (OOB/spare) area real FTLs use for crash recovery; `token` stands in
/// for the 4 KiB payload (tests stamp it to verify end-to-end integrity
/// without simulating page bytes).
struct PageData {
  Lba lba = kInvalidLba;
  SequenceNumber seq = 0;
  std::uint64_t token = 0;
  /// Atomic-write group id (0 = not part of a group). A group's pages
  /// only become durable once a commit marker page for the group exists
  /// (see ftl::PageFtl::WriteAtomic).
  std::uint64_t group = 0;

  friend bool operator==(const PageData&, const PageData&) = default;
};

/// Marker LBA used by commit pages of atomic write groups.
inline constexpr Lba kAtomicCommitLba = kInvalidLba - 1;

/// OOB `lba` sentinel for host-managed (nameless) pages written by the
/// vision-append FTL with no owner stamp: the page has no logical
/// address — the host holds its name. Stamped nameless writes put the
/// host's owner tag in `lba` instead (the de-indirection back-pointer),
/// so a post-crash scan can return (name, owner, epoch) tuples.
inline constexpr Lba kNamelessLba = kInvalidLba - 2;

/// Per-block bookkeeping.
struct BlockInfo {
  std::uint32_t write_point = 0;  // next programmable page (constraint C3)
  std::uint32_t valid_pages = 0;
  std::uint32_t erase_count = 0;
  bool bad = false;
};

/// Pure page/block state container enforcing the paper's flash
/// constraints:
///   C1 reads and programs are page-granular (implicit in the API),
///   C2 a block must be erased before any page in it is reprogrammed,
///   C3 programs are in ascending page order within a block (ONFI
///      semantics: gaps allowed, never backwards),
///   C4 erase cycles are finite (tracked here, enforced by ErrorModel).
/// Timing and parallelism live in ssd::Controller; this class is
/// synchronous and exhaustively unit-testable.
class PageStore {
 public:
  explicit PageStore(const Geometry& geometry);

  const Geometry& geometry() const { return geometry_; }

  /// Validates a program without mutating (bounds, bad block, C2/C3).
  Status CheckProgram(const Ppa& ppa) const;
  /// Programs a page. C2/C3 violations return FailedPrecondition.
  Status Program(const Ppa& ppa, const PageData& data);

  /// Reads a programmed page (valid or superseded — the charge stays in
  /// the cells until erase). Reading a free page is an error.
  StatusOr<PageData> Read(const Ppa& ppa) const;

  /// Erases a block: all pages return to kFree, write point resets,
  /// erase count increments. Erasing a bad block is an error.
  Status Erase(const BlockAddr& addr);

  /// FTL bookkeeping: marks a previously valid page as superseded.
  Status MarkInvalid(const Ppa& ppa);

  /// Recovery bookkeeping: re-marks a superseded page as live (used when
  /// an OOB scan after power loss determines it holds the newest copy).
  Status Revalidate(const Ppa& ppa);

  /// Marks a block as bad (called by the error model / controller).
  Status MarkBad(const BlockAddr& addr);

  PageState GetPageState(const Ppa& ppa) const;
  const BlockInfo& GetBlockInfo(const BlockAddr& addr) const;

  /// Wear statistics across all non-bad blocks.
  std::uint32_t MinEraseCount() const;
  std::uint32_t MaxEraseCount() const;
  double MeanEraseCount() const;
  std::uint64_t bad_blocks() const { return bad_blocks_; }

 private:
  std::uint64_t PageIndex(const Ppa& ppa) const {
    return ppa.Flatten(geometry_);
  }
  std::uint64_t BlockIndex(const BlockAddr& a) const {
    return a.Flatten(geometry_);
  }

  Geometry geometry_;
  std::vector<PageState> page_state_;
  std::vector<PageData> page_data_;
  std::vector<BlockInfo> blocks_;
  std::uint64_t bad_blocks_ = 0;
};

}  // namespace postblock::flash

#endif  // POSTBLOCK_FLASH_PAGE_STORE_H_
