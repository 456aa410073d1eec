#include "ftl/legacy_ftl.h"

#include <utility>

namespace postblock::ftl {

LegacyFtl::LegacyFtl(ssd::Controller* controller)
    : controller_(controller),
      luns_(controller->config().geometry.luns()),
      wear_leveler_(controller->config().wear) {
  const auto& g = controller->config().geometry;
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    const std::uint32_t channel = l / g.luns_per_channel;
    const std::uint32_t lun = l % g.luns_per_channel;
    for (std::uint32_t plane = 0; plane < g.planes_per_lun; ++plane) {
      for (std::uint32_t block = 0; block < g.blocks_per_plane; ++block) {
        luns_[l].free_blocks.push_back({channel, lun, plane, block});
      }
    }
  }
}

double LegacyFtl::WriteAmplification() const {
  const std::uint64_t host = counters_.Get("host_pages_accepted");
  if (host == 0) return 0.0;
  return static_cast<double>(
             controller_->counters().Get("pages_programmed")) /
         static_cast<double>(host);
}

void LegacyFtl::EnqueueOp(std::uint32_t lun, LunOp op) {
  luns_[lun].ops.push_back(std::move(op));
  RunNext(lun);
}

void LegacyFtl::RunNext(std::uint32_t lun) {
  LunState& st = luns_[lun];
  if (st.busy || st.ops.empty()) return;
  st.busy = true;
  auto op = std::move(st.ops.front());
  st.ops.pop_front();
  op([this, lun]() {
    luns_[lun].busy = false;
    RunNext(lun);
  });
}

bool LegacyFtl::TakeFreeBlock(std::uint32_t lun, flash::BlockAddr* out) {
  LunState& st = luns_[lun];
  if (st.free_blocks.empty()) {
    // Over-provisioning normally leaves spares beyond the user-visible
    // vblocks, but erase retirement eats into them permanently.
    counters_.Increment("free_list_exhausted");
    return false;
  }
  std::vector<std::uint32_t> wear;
  wear.reserve(st.free_blocks.size());
  for (const auto& b : st.free_blocks) {
    wear.push_back(controller_->flash()->GetBlockInfo(b).erase_count);
  }
  const std::size_t pick = wear_leveler_.SelectFreeBlock(wear);
  *out = st.free_blocks[pick];
  st.free_blocks.erase(st.free_blocks.begin() +
                       static_cast<std::ptrdiff_t>(pick));
  return true;
}

}  // namespace postblock::ftl
