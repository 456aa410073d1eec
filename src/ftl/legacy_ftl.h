#ifndef POSTBLOCK_FTL_LEGACY_FTL_H_
#define POSTBLOCK_FTL_LEGACY_FTL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "ftl/wear_leveler.h"
#include "sim/inplace_callback.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// What the two block-mapped legacy FTLs (BlockFtl, HybridFtl) share:
/// a serial firmware op queue per LUN (early controllers had no per-LUN
/// pipelining), a per-LUN free-block list filled with every block at
/// construction, the wear-levelled free-block pick, the vblock-to-LUN
/// striping and write amplification over host_pages_accepted.
class LegacyFtl : public Ftl {
 public:
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;

 protected:
  explicit LegacyFtl(ssd::Controller* controller);

  /// A queued firmware op; it runs `op_done` when it releases the LUN.
  using LunOp = sim::InplaceFunction<void(sim::InplaceCallback op_done)>;
  struct LunState {
    std::deque<LunOp> ops;
    bool busy = false;
    std::vector<flash::BlockAddr> free_blocks;
  };

  /// Firmware op queue: runs `op` once every earlier op on the LUN has
  /// released it.
  void EnqueueOp(std::uint32_t lun, LunOp op);

  std::uint32_t LunOf(std::uint64_t vblock) const {
    return static_cast<std::uint32_t>(vblock % luns_.size());
  }
  /// Pops the wear-leveler's pick from the LUN's free list. Returns
  /// false when the list is empty (erase retirement can consume the
  /// over-provisioned spares) — callers must fail the write rather than
  /// index into an empty vector.
  bool TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out);

  ssd::Controller* controller_;
  std::vector<LunState> luns_;
  WearLeveler wear_leveler_;
  Counters counters_;

 private:
  void RunNext(std::uint32_t lun);
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_LEGACY_FTL_H_
