#include "core/pcm_log.h"

#include <cstring>
#include <utility>

namespace postblock::core {

PcmLog::PcmLog(sim::Simulator* sim, pcm::PcmDevice* pcm,
               std::uint64_t region_off, std::uint64_t region_len)
    : sim_(sim), pcm_(pcm), region_off_(region_off),
      region_len_(region_len), zero_header_(kHeaderBytes, 0) {}

void PcmLog::Append(const std::vector<std::uint8_t>& payload, AppendCb cb) {
  PendingAppend* item = appends_.Acquire();
  // One store covers header + payload + the new zero terminator; the
  // next append overwrites that terminator in place (no erase on PCM).
  // The header is stamped when the append reaches the head of the queue.
  item->store.assign(kHeaderBytes + payload.size() + kHeaderBytes, 0);
  std::memcpy(item->store.data() + kHeaderBytes, payload.data(),
              payload.size());
  item->cb = std::move(cb);
  queue_.push_back(item);
  PumpQueue();
}

void PcmLog::PumpQueue() {
  if (store_in_flight_ || queue_.empty()) return;
  PendingAppend* item = queue_.pop_front();

  const std::uint64_t need = item->store.size();
  const std::uint64_t payload_bytes = need - 2 * kHeaderBytes;
  if (head_ + need > region_len_) {
    counters_.Increment("append_full");
    AppendCb cb = std::move(item->cb);
    appends_.Release(item);
    sim_->Schedule(0, [this, cb = std::move(cb)] {
      cb(Status::ResourceExhausted("pcm log region full"));
      PumpQueue();
    });
    return;
  }
  item->lsn = head_;
  const std::uint32_t len = static_cast<std::uint32_t>(payload_bytes);
  const std::uint32_t rec_seq = next_rec_seq_++;
  std::memcpy(item->store.data(), &len, sizeof(len));
  std::memcpy(item->store.data() + sizeof(len), &rec_seq, sizeof(rec_seq));
  head_ += kHeaderBytes + payload_bytes;

  counters_.Increment("appends");
  counters_.Add("bytes_appended", payload_bytes);
  store_in_flight_ = true;
  pcm_->Write(region_off_ + item->lsn, item->store,
              [this, item](Status st) { OnStored(item, std::move(st)); });
}

void PcmLog::OnStored(PendingAppend* item, Status st) {
  store_in_flight_ = false;
  AppendCb cb = std::move(item->cb);
  const Lsn lsn = item->lsn;
  appends_.Release(item);
  if (!st.ok()) {
    cb(std::move(st));
  } else {
    cb(lsn);
  }
  PumpQueue();
}

void PcmLog::Truncate(StatusCb cb) {
  head_ = 0;
  counters_.Increment("truncates");
  pcm_->Write(region_off_, zero_header_, std::move(cb));
}

std::vector<std::vector<std::uint8_t>> PcmLog::RecoverAll() const {
  std::vector<std::vector<std::uint8_t>> out;
  std::uint64_t off = 0;
  for (;;) {
    if (off + kHeaderBytes > region_len_) break;
    auto header = pcm_->Peek(region_off_ + off, kHeaderBytes);
    if (!header.ok()) break;
    std::uint32_t len = 0;
    std::uint32_t rec_seq = 0;
    std::memcpy(&len, header->data(), sizeof(len));
    std::memcpy(&rec_seq, header->data() + sizeof(len), sizeof(rec_seq));
    if (len == 0 || rec_seq == 0) break;  // terminator
    if (off + kHeaderBytes + len > region_len_) break;  // corrupt tail
    auto payload = pcm_->Peek(region_off_ + off + kHeaderBytes, len);
    if (!payload.ok()) break;
    out.push_back(std::move(*payload));
    off += kHeaderBytes + len;
  }
  return out;
}

void PcmLog::ResetAfterCrash() {
  queue_.clear();
  store_in_flight_ = false;
  // Rewind the head to the durable chain's end.
  std::uint64_t off = 0;
  for (;;) {
    if (off + kHeaderBytes > region_len_) break;
    auto header = pcm_->Peek(region_off_ + off, kHeaderBytes);
    if (!header.ok()) break;
    std::uint32_t len = 0;
    std::uint32_t rec_seq = 0;
    std::memcpy(&len, header->data(), sizeof(len));
    std::memcpy(&rec_seq, header->data() + sizeof(len), sizeof(rec_seq));
    if (len == 0 || rec_seq == 0) break;
    if (off + kHeaderBytes + len > region_len_) break;
    off += kHeaderBytes + len;
  }
  head_ = off;
  counters_.Increment("crash_resets");
}

}  // namespace postblock::core
