#include "core/hybrid_store.h"

#include <memory>
#include <utility>

namespace postblock::core {

HybridStore::HybridStore(sim::Simulator* sim, PcmLog* pcm_log)
    : sim_(sim), pcm_log_(pcm_log) {}

HybridStore::HybridStore(sim::Simulator* sim,
                         blocklayer::BlockDevice* data_path,
                         Lba log_region_start,
                         std::uint64_t log_region_blocks)
    : sim_(sim),
      data_path_(data_path),
      log_region_start_(log_region_start),
      log_region_blocks_(log_region_blocks) {}

void HybridStore::SyncPersist(const std::vector<std::uint8_t>& record,
                              StatusCb cb) {
  Persist* p = persists_.Acquire();
  p->cb = std::move(cb);
  counters_.Increment("sync_persists");
  counters_.Add("sync_bytes", record.size());
  if (pcm_log_ != nullptr) {
    pcm_log_->Append(record, [this, p](StatusOr<Lsn> r) {
      FinishPersist(p, r.ok() ? Status::Ok() : r.status());
    });
    return;
  }
  // Classic: one whole log block per record (the interface has no
  // smaller write unit), then a flush barrier to defeat the volatile
  // cache — this is what WAL-on-SSD actually costs.
  counters_.Add("sync_padded_bytes",
                data_path_->block_bytes() > record.size()
                    ? data_path_->block_bytes() - record.size()
                    : 0);
  p->lba = log_region_start_ + (log_head_block_++ % log_region_blocks_);
  p->token = next_log_token_++;
  p->record.assign(record.begin(), record.end());
  blocklayer::IoRequest write;
  write.op = blocklayer::IoOp::kWrite;
  write.lba = p->lba;
  write.nblocks = 1;
  write.tokens = {p->token};
  // Commit-critical: jumps lazy page flushes under a priority scheduler
  // (ref [13]).
  write.priority = 1;
  write.on_complete = [this, p](const blocklayer::IoResult& wr) {
    OnLogWritten(p, wr);
  };
  data_path_->Submit(std::move(write));
}

void HybridStore::OnLogWritten(Persist* p, const blocklayer::IoResult& wr) {
  if (!wr.status.ok()) {
    FinishPersist(p, wr.status);
    return;
  }
  blocklayer::IoRequest flush;
  flush.op = blocklayer::IoOp::kFlush;
  flush.nblocks = 1;
  flush.on_complete = [this, p](const blocklayer::IoResult& fr) {
    OnLogFlushed(p, fr);
  };
  data_path_->Submit(std::move(flush));
}

void HybridStore::OnLogFlushed(Persist* p, const blocklayer::IoResult& fr) {
  if (fr.status.ok()) {
    // The record is now beyond the volatile cache: durable. Its bytes
    // trade places with a truncated record's buffer.
    const std::size_t n = classic_slots_.size();
    if (classic_durable_.size() == n) classic_durable_.emplace_back();
    classic_durable_[n].swap(p->record);
    classic_slots_.push_back(ClassicLogSlot{p->lba, p->token});
  }
  FinishPersist(p, fr.status);
}

void HybridStore::FinishPersist(Persist* p, Status st) {
  StatusCb cb = std::move(p->cb);
  persists_.Release(p);
  cb(std::move(st));
}

struct HybridStore::RecoveryScan {
  std::size_t index = 0;
  std::vector<std::vector<std::uint8_t>> out;
  RecordsCb cb;
};

void HybridStore::RecoverRecords(RecordsCb cb) {
  if (pcm_log_ != nullptr) {
    auto records = pcm_log_->RecoverAll();
    sim_->Schedule(0, [cb = std::move(cb),
                       records = std::move(records)]() mutable {
      cb(std::move(records));
    });
    return;
  }
  auto scan = std::make_shared<RecoveryScan>();
  scan->cb = std::move(cb);
  RecoverStep(scan);
}

void HybridStore::RecoverStep(const std::shared_ptr<RecoveryScan>& scan) {
  if (scan->index >= classic_slots_.size()) {
    scan->cb(std::move(scan->out));
    return;
  }
  const ClassicLogSlot slot = classic_slots_[scan->index];
  blocklayer::IoRequest read;
  read.op = blocklayer::IoOp::kRead;
  read.lba = slot.lba;
  read.nblocks = 1;
  read.priority = 1;
  read.on_complete = [this, scan, slot](const blocklayer::IoResult& r) {
    if (!r.status.ok() || r.tokens.empty() || r.tokens[0] != slot.token) {
      // Torn point: the record at index is unreadable (or its block was
      // reclaimed by a wrapped log head). Everything after it is suspect
      // too — truncate here rather than replay past a hole.
      counters_.Increment("log_torn_truncations");
      scan->cb(std::move(scan->out));
      return;
    }
    scan->out.push_back(classic_durable_[scan->index]);
    ++scan->index;
    RecoverStep(scan);
  };
  counters_.Increment("log_recovery_reads");
  data_path_->Submit(std::move(read));
}

void HybridStore::TruncateLog(StatusCb cb) {
  if (pcm_log_ != nullptr) {
    pcm_log_->Truncate(std::move(cb));
    return;
  }
  classic_slots_.clear();  // classic_durable_ keeps its buffers
  log_head_block_ = 0;
  sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
}

}  // namespace postblock::core
