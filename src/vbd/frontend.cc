#include "vbd/frontend.h"

#include <utility>

#include "vbd/backend.h"

namespace postblock::vbd {

void Frontend::Submit(blocklayer::IoRequest request) {
  // A block op the device below lacks is refused Unimplemented here,
  // before the backend checks the namespace or charges the quota.
  if (!blocklayer::IsBlockOp(request.op) || !Supports(request.op)) {
    RouteNonBlockOp(std::move(request));
    return;
  }
  backend_->Submit(this, std::move(request));
}

bool Frontend::Supports(blocklayer::IoOp op) const {
  return blocklayer::IsBlockOp(op) ? backend_->lower()->Supports(op)
                                   : op == blocklayer::IoOp::kHint;
}

TenantState Frontend::state() const { return backend_->StateFor(*this); }

std::uint64_t Frontend::quota_used() const {
  return backend_->QuotaUsedFor(*this);
}

}  // namespace postblock::vbd
