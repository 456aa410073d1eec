#include "hdd/hdd.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

namespace postblock::hdd {

Hdd::Hdd(sim::Simulator* sim)
    : sim_(sim), actuator_(sim, "hdd-actuator", 1), tokens_(kNumBlocks, 0) {}

SimTime Hdd::ServiceTime(Lba lba, std::uint32_t nblocks) const {
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * kBlockBytes;
  const SimTime transfer = bytes * 1000 / kTransferMbPerS;  // MB = 10^6 B
  if (lba == head_) {
    // Streaming: the head is already there, no rotation wait.
    return transfer;
  }
  const double distance =
      static_cast<double>(lba > head_ ? lba - head_ : head_ - lba) /
      static_cast<double>(kNumBlocks);
  // Classic sqrt seek curve between track-to-track and full stroke.
  const SimTime seek =
      kMinSeekNs + static_cast<SimTime>(
                       static_cast<double>(kMaxSeekNs - kMinSeekNs) *
                       std::sqrt(distance));
  const SimTime half_rotation = SimTime{30} * kSecond / kRpm;  // 60s/rpm / 2
  return seek + half_rotation + transfer;
}

void Hdd::Submit(blocklayer::IoRequest request) {
  if (!blocklayer::IsBlockOp(request.op)) {
    RouteNonBlockOp(std::move(request));
    return;
  }
  counters_.Increment("requests");
  if (request.nblocks == 0 || request.op == blocklayer::IoOp::kFlush ||
      request.op == blocklayer::IoOp::kTrim) {
    // Disks have no trim; both are no-ops here.
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (!blocklayer::ExtentInRange(request.lba, request.nblocks, kNumBlocks)) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::OutOfRange("beyond device"), {}});
    });
    return;
  }
  if (request.op == blocklayer::IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }
  auto req = std::make_shared<blocklayer::IoRequest>(std::move(request));
  actuator_.Acquire([this, req]() {
    const SimTime service = ServiceTime(req->lba, req->nblocks);
    sim_->Schedule(service, [this, req]() {
      blocklayer::IoResult result;
      result.status = Status::Ok();
      if (req->op == blocklayer::IoOp::kRead) {
        result.tokens.reserve(req->nblocks);
        for (std::uint32_t i = 0; i < req->nblocks; ++i) {
          result.tokens.push_back(tokens_[req->lba + i]);
        }
        counters_.Add("blocks_read", req->nblocks);
      } else {
        for (std::uint32_t i = 0; i < req->nblocks; ++i) {
          tokens_[req->lba + i] = req->tokens[i];
        }
        counters_.Add("blocks_written", req->nblocks);
      }
      head_ = req->lba + req->nblocks;
      actuator_.Release();
      req->on_complete(result);
    });
  });
}

}  // namespace postblock::hdd
