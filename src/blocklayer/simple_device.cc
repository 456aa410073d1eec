#include "blocklayer/simple_device.h"

#include <utility>

namespace postblock::blocklayer {

SimpleBlockDevice::SimpleBlockDevice(sim::Simulator* sim,
                                     const SimpleDeviceConfig& config)
    : sim_(sim),
      config_(config),
      units_(sim, "simple-dev", static_cast<int>(config.units)),
      tokens_(config.num_blocks, 0) {}

void SimpleBlockDevice::Submit(IoRequest request) {
  if (!IsBlockOp(request.op)) {
    RouteNonBlockOp(std::move(request));
    return;
  }
  counters_.Increment("requests");
  if (request.nblocks == 0 || request.op == IoOp::kFlush) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (!ExtentInRange(request.lba, request.nblocks, config_.num_blocks)) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(
          IoResult{Status::OutOfRange("beyond device"), {}});
    });
    return;
  }
  if (request.op == IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }
  Op* op = ops_.Acquire();
  op->req = std::move(request);
  sim_->Schedule(config_.controller_overhead_ns, [this, op] { Start(op); });
}

void SimpleBlockDevice::Start(Op* op) {
  op->remaining = op->req.nblocks;
  op->result.status = Status::Ok();
  if (op->req.op == IoOp::kRead) {
    op->result.tokens.assign(op->req.nblocks, 0);
  } else {
    op->result.tokens.clear();
  }
  const SimTime service = op->req.op == IoOp::kRead    ? config_.read_ns
                          : op->req.op == IoOp::kWrite ? config_.write_ns
                                                       : 0;
  for (std::uint32_t i = 0; i < op->req.nblocks; ++i) {
    units_.UseFor(service, [this, op, i] { ServeBlock(op, i); });
  }
}

void SimpleBlockDevice::ServeBlock(Op* op, std::uint32_t i) {
  const Lba lba = op->req.lba + i;
  switch (op->req.op) {
    case IoOp::kRead:
      op->result.tokens[i] = tokens_[lba];
      counters_.Increment("blocks_read");
      break;
    case IoOp::kWrite:
      tokens_[lba] = op->req.tokens[i];
      counters_.Increment("blocks_written");
      break;
    case IoOp::kTrim:
      tokens_[lba] = 0;
      counters_.Increment("blocks_trimmed");
      break;
    default:
      break;
  }
  if (--op->remaining > 0) return;
  // Released after the callback, which may submit again: the record and
  // its result stay the caller's until the callback returns.
  op->req.on_complete(op->result);
  op->req = IoRequest{};
  ops_.Release(op);
}

}  // namespace postblock::blocklayer
