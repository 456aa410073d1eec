#include "pcm/pcm_device.h"

#include <algorithm>
#include <cstring>

namespace postblock::pcm {

namespace {
// Calls fn(chunk index, offset in the chunk, offset in the range, n) for
// each piece of [addr, addr + len) that lies in one chunk, in order.
template <typename Fn>
void ForEachPiece(std::uint64_t addr, std::uint64_t len, Fn&& fn) {
  constexpr std::uint64_t chunk_bytes = PcmDevice::kChunkBytes;
  for (std::uint64_t pos = 0; pos < len;) {
    const std::uint64_t at = addr + pos;
    const std::uint64_t off = at % chunk_bytes;
    const std::uint64_t n = std::min(len - pos, chunk_bytes - off);
    fn(at / chunk_bytes, off, pos, n);
    pos += n;
  }
}
}  // namespace

PcmDevice::PcmDevice(sim::Simulator* sim, const PcmConfig& config)
    : sim_(sim),
      config_(config),
      chunks_((config.capacity_bytes + kChunkBytes - 1) / kChunkBytes),
      bus_(sim, "pcm-bus", kBanks) {}

bool PcmDevice::InRange(std::uint64_t addr, std::uint64_t len) const {
  return len <= config_.capacity_bytes &&
         addr <= config_.capacity_bytes - len;
}

PcmDevice::Chunk& PcmDevice::Commit(std::uint64_t index) {
  Chunk& c = chunks_[index];
  if (c.bytes.empty()) {
    const std::uint64_t n = std::min(
        kChunkBytes, config_.capacity_bytes - index * kChunkBytes);
    c.bytes.assign(n, 0);
    c.wear.assign((n + kLineBytes - 1) / kLineBytes, 0);
    committed_bytes_ += n;
  }
  return c;
}

std::uint64_t PcmDevice::LinesFor(std::uint64_t addr,
                                  std::uint64_t len) const {
  if (len == 0) return 0;
  const std::uint64_t first = addr / kLineBytes;
  const std::uint64_t last = (addr + len - 1) / kLineBytes;
  return last - first + 1;
}

SimTime PcmDevice::ReadLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * kReadNsPerLine;
}

SimTime PcmDevice::WriteLatency(std::uint64_t len) const {
  const std::uint64_t lines = std::max<std::uint64_t>(1, LinesFor(0, len));
  return lines * kWriteNsPerLine;
}

void PcmDevice::Write(std::uint64_t addr,
                      const std::vector<std::uint8_t>& data,
                      StatusCb on_done) {
  if (!InRange(addr, data.size())) {
    on_done(Status::OutOfRange("pcm write beyond capacity"));
    return;
  }
  Store* st = stores_.Acquire();
  st->addr = addr;
  st->data.assign(data.begin(), data.end());
  st->latency = WriteLatency(data.size());
  st->epoch = epoch_;
  st->on_done = std::move(on_done);
  counters_.Increment("writes");
  counters_.Add("lines_written", LinesFor(addr, data.size()));
  bus_.Acquire([this, st] {
    sim_->Schedule(st->latency, [this, st] { FinishStore(st); });
  });
}

void PcmDevice::FinishStore(Store* st) {
  bus_.Release();
  StatusCb on_done = std::move(st->on_done);
  const bool landed = st->epoch == epoch_;  // else: power cut mid-store
  if (landed) {
    // A chunk holds whole lines, so a piece's lines are the chunk's own.
    ForEachPiece(st->addr, st->data.size(),
                 [&](std::uint64_t index, std::uint64_t off,
                     std::uint64_t pos, std::uint64_t n) {
                   Chunk& c = Commit(index);
                   std::memcpy(c.bytes.data() + off, st->data.data() + pos,
                               n);
                   const std::uint64_t last = (off + n - 1) / kLineBytes;
                   for (std::uint64_t l = off / kLineBytes; l <= last; ++l) {
                     ++c.wear[l];
                   }
                 });
  }
  stores_.Release(st);
  if (landed) on_done(Status::Ok());
}

void PcmDevice::Read(std::uint64_t addr, std::uint64_t len, ReadCb on_done) {
  if (!InRange(addr, len)) {
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
      on_done(Peek(addr, len));
    });
  });
}

StatusOr<std::vector<std::uint8_t>> PcmDevice::Peek(std::uint64_t addr,
                                                    std::uint64_t len) const {
  if (!InRange(addr, len)) {
    return Status::OutOfRange("pcm peek beyond capacity");
  }
  std::vector<std::uint8_t> out(len, 0);  // never-stored chunks read 0
  ForEachPiece(addr, len,
               [&](std::uint64_t index, std::uint64_t off, std::uint64_t pos,
                   std::uint64_t n) {
                 const Chunk& c = chunks_[index];
                 if (!c.bytes.empty()) {
                   std::memcpy(out.data() + pos, c.bytes.data() + off, n);
                 }
               });
  return out;
}

std::uint64_t PcmDevice::MaxLineWear() const {
  std::uint32_t m = 0;
  for (const Chunk& c : chunks_) {
    for (auto w : c.wear) m = std::max(m, w);
  }
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
