#ifndef POSTBLOCK_FTL_WEAR_LEVELER_H_
#define POSTBLOCK_FTL_WEAR_LEVELER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ftl/mapping_types.h"
#include "ssd/config.h"

namespace postblock::ftl {

/// Wear-leveling decisions (Figure 2's third controller module).
/// Dynamic WL biases free-block allocation toward the least-worn block;
/// static WL occasionally migrates cold (long-valid) data into worn
/// blocks so their erase budget gets spent on data that stops moving.
class WearLeveler {
 public:
  explicit WearLeveler(const ssd::WearLevelConfig& config)
      : config_(config) {}

  const ssd::WearLevelConfig& config() const { return config_; }

  /// Picks which free block to hand out next, given each free block's
  /// erase count. Dynamic WL picks min-wear (hot incoming data should
  /// land on young blocks); a static-WL migration passes
  /// `prefer_worn=true` to land *cold* data on the most-worn block —
  /// that is what retires the worn block's erase budget.
  std::size_t SelectFreeBlock(const std::vector<std::uint32_t>& free_block_wear,
                              bool prefer_worn = false) const;

  /// True if the erase-count spread warrants a static migration.
  bool ShouldMigrate(std::uint32_t min_erase,
                     std::uint32_t max_erase) const;

  /// Picks the cold-migration source: the fully/mostly valid block with
  /// the lowest erase count (its data is cold and pinning a young
  /// block). Returns nullopt if no candidate qualifies.
  std::optional<flash::BlockAddr> PickColdBlock(
      const std::vector<BlockMeta>& candidates,
      std::uint32_t pages_per_block) const;

 private:
  ssd::WearLevelConfig config_;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_WEAR_LEVELER_H_
