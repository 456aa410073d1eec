#ifndef POSTBLOCK_FTL_HYBRID_FTL_H_
#define POSTBLOCK_FTL_HYBRID_FTL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ftl/legacy_ftl.h"
#include "sim/inplace_callback.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// Hybrid log-block FTL (BAST-style): block-mapped data blocks plus a
/// small per-LUN pool of page-mapped *log blocks* absorbing overwrites.
/// The mid-2000s compromise between mapping-table RAM and random-write
/// cost:
///
///   - appends in order go straight to the data block (cheap),
///   - overwrites append to the vblock's log block (cheap until the log
///     fills or the pool runs dry),
///   - a full log written exactly sequentially becomes the data block
///     (*switch merge*: one erase, zero copies),
///   - otherwise a *full merge* rebuilds the block from data+log (up to
///     pages_per_block copies + two erases).
///
/// Random writes across many vblocks thrash the small log pool and
/// degenerate into full merges — the behaviour behind the paper's
/// "random writes are very costly" era.
class HybridFtl : public LegacyFtl {
 public:
  explicit HybridFtl(ssd::Controller* controller);

  HybridFtl(const HybridFtl&) = delete;
  HybridFtl& operator=(const HybridFtl&) = delete;

  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return user_pages_; }

 private:
  static constexpr std::uint32_t kUnmappedPage = ~0u;

  struct LogBlock {
    flash::BlockAddr phys;
    std::uint64_t vblock = 0;
    std::uint32_t next_page = 0;
    /// offset-in-vblock -> page-in-log of the newest copy.
    std::vector<std::uint32_t> offset_map;
    bool sequential_so_far = true;  // eligible for switch merge
  };

  struct VBlockEntry {
    flash::BlockAddr data_phys;
    bool data_mapped = false;
    std::int32_t log_index = -1;  // into logs_[lun], -1 = none
  };

  void ReleaseBlock(std::uint32_t lun, flash::BlockAddr addr,
                    sim::InplaceCallback done);

  void WriteToLog(std::uint32_t lun, std::uint64_t vblock,
                  std::uint32_t off, std::uint64_t token,
                  SequenceNumber seq, WriteCallback done, trace::Ctx ctx);
  /// Merges vblock's data+log into a fresh block; frees both originals.
  /// Performs a switch merge when the log is a perfect sequential image.
  void MergeVBlock(std::uint32_t lun, std::uint64_t vblock,
                   WriteCallback done);
  /// One full merge in progress. Its flash completions hold only the job
  /// and re-enter MergeStep, so the job dies with its last continuation.
  struct MergeJob;
  /// Copies the job's pages from `job->page` until one needs flash IO
  /// (its completion resumes the walk) or the block is done (remap, then
  /// release the old data and log blocks).
  void MergeStep(const std::shared_ptr<MergeJob>& job);
  /// Picks the log block to evict when the pool is exhausted.
  std::size_t PickLogVictim(const std::vector<LogBlock>& logs) const;

  std::uint64_t user_vblocks_;
  std::uint64_t user_pages_;
  std::vector<VBlockEntry> map_;
  /// Per LUN, its log-block slots (<= pool size active).
  std::vector<std::vector<LogBlock>> logs_;
  SequenceNumber next_seq_ = 1;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_HYBRID_FTL_H_
