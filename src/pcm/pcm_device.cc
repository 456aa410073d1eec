#include "pcm/pcm_device.h"

#include <algorithm>
#include <cstring>

namespace postblock::pcm {

PcmDevice::PcmDevice(sim::Simulator* sim, const PcmConfig& config)
    : sim_(sim),
      config_(config),
      bytes_(config.capacity_bytes, 0),
      line_wear_((config.capacity_bytes + config.line_bytes - 1) /
                     config.line_bytes,
                 0),
      bus_(sim, "pcm-bus", static_cast<int>(config.banks)) {}

std::uint64_t PcmDevice::LinesFor(std::uint64_t addr,
                                  std::uint64_t len) const {
  if (len == 0) return 0;
  const std::uint64_t first = addr / config_.line_bytes;
  const std::uint64_t last = (addr + len - 1) / config_.line_bytes;
  return last - first + 1;
}

SimTime PcmDevice::ReadLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * config_.read_ns_per_line;
}

SimTime PcmDevice::WriteLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * config_.write_ns_per_line;
}

void PcmDevice::Write(std::uint64_t addr,
                      const std::vector<std::uint8_t>& data,
                      StatusCb on_done) {
  if (addr + data.size() > config_.capacity_bytes) {
    on_done(Status::OutOfRange("pcm write beyond capacity"));
    return;
  }
  Store* st = stores_.Acquire();
  st->addr = addr;
  st->data.assign(data.begin(), data.end());
  st->latency = WriteLatency(data.size());
  st->first_line = addr / config_.line_bytes;
  st->lines = LinesFor(addr, data.size());
  st->epoch = epoch_;
  st->on_done = std::move(on_done);
  counters_.Increment("writes");
  counters_.Add("lines_written", st->lines);
  bus_.Acquire([this, st] {
    sim_->Schedule(st->latency, [this, st] { FinishStore(st); });
  });
}

void PcmDevice::FinishStore(Store* st) {
  bus_.Release();
  StatusCb on_done = std::move(st->on_done);
  const bool landed = st->epoch == epoch_;  // else: power cut mid-store
  if (landed) {
    std::memcpy(bytes_.data() + st->addr, st->data.data(), st->data.size());
    for (std::uint64_t l = 0; l < st->lines; ++l) {
      ++line_wear_[st->first_line + l];
    }
  }
  stores_.Release(st);
  if (landed) on_done(Status::Ok());
}

void PcmDevice::Read(std::uint64_t addr, std::uint64_t len, ReadCb on_done) {
  if (addr + len > config_.capacity_bytes) {
    on_done(Status::OutOfRange("pcm read beyond capacity"));
    return;
  }
  const SimTime latency = ReadLatency(len);
  counters_.Increment("reads");
  const std::uint64_t epoch = epoch_;
  bus_.Acquire([this, addr, len, latency, epoch,
                on_done = std::move(on_done)]() mutable {
    sim_->Schedule(latency, [this, addr, len, epoch,
                             on_done = std::move(on_done)]() {
      bus_.Release();
      if (epoch != epoch_) return;  // power cut: caller is gone
      std::vector<std::uint8_t> out(bytes_.begin() + addr,
                                    bytes_.begin() + addr + len);
      on_done(std::move(out));
    });
  });
}

StatusOr<std::vector<std::uint8_t>> PcmDevice::Peek(std::uint64_t addr,
                                                    std::uint64_t len) const {
  if (addr + len > config_.capacity_bytes) {
    return Status::OutOfRange("pcm peek beyond capacity");
  }
  return std::vector<std::uint8_t>(bytes_.begin() + addr,
                                   bytes_.begin() + addr + len);
}

std::uint64_t PcmDevice::MaxLineWear() const {
  std::uint32_t m = 0;
  for (auto w : line_wear_) m = std::max(m, w);
  return m;
}

void PcmDevice::RegisterMetrics(metrics::MetricRegistry* m) {
  m->AddPolledCounter("pcm.reads",
                      [this] { return counters_.Get("reads"); });
  m->AddPolledCounter("pcm.writes",
                      [this] { return counters_.Get("writes"); });
  m->AddPolledCounter("pcm.lines_written",
                      [this] { return counters_.Get("lines_written"); });
  m->AddPolledCounter("pcm.bus_busy_ns",
                      [this] { return bus_.busy_ns(); });
  m->AddGauge("pcm.max_line_wear",
              [this] { return static_cast<double>(MaxLineWear()); });
}

}  // namespace postblock::pcm
