#include "ftl/wear_leveler.h"

namespace postblock::ftl {

std::size_t WearLeveler::SelectFreeBlock(
    const std::vector<std::uint32_t>& free_block_wear,
    bool prefer_worn) const {
  if (free_block_wear.empty()) return 0;
  if (prefer_worn) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < free_block_wear.size(); ++i) {
      if (free_block_wear[i] > free_block_wear[best]) best = i;
    }
    return best;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < free_block_wear.size(); ++i) {
    if (free_block_wear[i] < free_block_wear[best]) best = i;
  }
  return best;
}

bool WearLeveler::ShouldMigrate(std::uint32_t min_erase,
                                std::uint32_t max_erase) const {
  return config_.static_enabled &&
         max_erase - min_erase > config_.spread_threshold;
}

std::optional<flash::BlockAddr> WearLeveler::PickColdBlock(
    const std::vector<BlockMeta>& candidates,
    std::uint32_t pages_per_block) const {
  const BlockMeta* best = nullptr;
  for (const auto& c : candidates) {
    // Cold = holding mostly valid data; prefer the least-worn.
    if (c.valid_pages < pages_per_block / 2) continue;
    if (best == nullptr || c.erase_count < best->erase_count) best = &c;
  }
  if (best == nullptr) return std::nullopt;
  return best->addr;
}

}  // namespace postblock::ftl
