#ifndef POSTBLOCK_FTL_BLOCK_FTL_H_
#define POSTBLOCK_FTL_BLOCK_FTL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ftl/legacy_ftl.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// Block-level mapping FTL — the pre-2009 SSD design the paper blames
/// for the "random writes are extremely costly" myth. An LBA's page
/// offset within its logical block is fixed; only whole blocks remap.
///
///   - Sequential writes append into the mapped physical block: cheap.
///   - Overwrites and backwards writes force a *merge*: copy every live
///     page of the block to a fresh block, erase the old one. One 4 KiB
///     random write can cost ~pages_per_block reads+programs + an erase.
///
/// Operations on one LUN run serially through the LegacyFtl firmware
/// queue, so merges also block unrelated reads on the same LUN.
class BlockFtl : public LegacyFtl {
 public:
  explicit BlockFtl(ssd::Controller* controller);

  BlockFtl(const BlockFtl&) = delete;
  BlockFtl& operator=(const BlockFtl&) = delete;

  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return user_pages_; }

 private:
  struct VBlockEntry {
    flash::BlockAddr phys;
    bool mapped = false;
  };
  // The merge engine: builds a fresh physical block containing the old
  // block's live pages plus (optionally) one new page at `new_off`.
  void Merge(std::uint32_t lun, std::uint64_t vblock,
             std::uint64_t new_off_or_npos, std::uint64_t token,
             SequenceNumber seq, WriteCallback done, trace::Ctx ctx);
  /// One merge in progress. Its flash completions hold only the job and
  /// re-enter MergeStep, so the job dies with its last continuation.
  struct MergeJob;
  /// Walks the job's pages from `job->page` until one needs flash IO
  /// (then returns; the IO's completion resumes the walk) or the block
  /// is done (remap + erase the old block).
  void MergeStep(const std::shared_ptr<MergeJob>& job);

  std::uint64_t user_vblocks_;
  std::uint64_t user_pages_;
  std::vector<VBlockEntry> map_;
  SequenceNumber next_seq_ = 1;

  static constexpr std::uint64_t kNoNewPage = ~0ull;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_BLOCK_FTL_H_
