#include "workload/db_trace.h"

namespace postblock::workload {

namespace {
// Skew of the zipf key distribution.
constexpr double kZipfTheta = 0.9;
}  // namespace

DbTrace::DbTrace(const DbTraceConfig& config)
    : config_(config),
      keys_(config.key_space, kZipfTheta, config.seed),
      rng_(config.seed ^ 0x5eed) {}

KvOp DbTrace::Next() {
  KvOp op;
  op.key = keys_.Next();
  const double draw = rng_.NextDouble();
  if (draw < config_.delete_fraction) {
    op.kind = KvOp::Kind::kDelete;
  } else if (draw < config_.delete_fraction + config_.put_fraction) {
    op.kind = KvOp::Kind::kPut;
    op.value = next_value_++;
  } else {
    op.kind = KvOp::Kind::kGet;
  }
  return op;
}

std::vector<KvOp> DbTrace::Take(std::size_t n) {
  std::vector<KvOp> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

}  // namespace postblock::workload
