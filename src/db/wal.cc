#include "db/wal.h"

#include <cstring>

namespace postblock::db {

namespace {
constexpr std::uint32_t kBatchMagic = 0x57414C42;  // "WALB"
}  // namespace

std::vector<std::uint8_t> EncodeBatch(const WalBatch& batch) {
  std::vector<std::uint8_t> out;
  EncodeBatchInto(batch, &out);
  return out;
}

void EncodeBatchInto(const WalBatch& batch, std::vector<std::uint8_t>* out) {
  out->resize(4 + 8 + 4 + batch.ops.size() * 17);
  std::uint8_t* p = out->data();
  std::size_t off = 0;
  std::memcpy(p + off, &kBatchMagic, 4);
  off += 4;
  std::memcpy(p + off, &batch.txn_id, 8);
  off += 8;
  const std::uint32_t count = static_cast<std::uint32_t>(batch.ops.size());
  std::memcpy(p + off, &count, 4);
  off += 4;
  for (const WalOp& op : batch.ops) {
    p[off++] = static_cast<std::uint8_t>(op.kind);
    std::memcpy(p + off, &op.key, 8);
    off += 8;
    std::memcpy(p + off, &op.value, 8);
    off += 8;
  }
}

bool DecodeBatch(const std::vector<std::uint8_t>& bytes, WalBatch* out) {
  if (bytes.size() < 16) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kBatchMagic) return false;
  std::memcpy(&out->txn_id, bytes.data() + 4, 8);
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, 4);
  if (bytes.size() < 16 + static_cast<std::size_t>(count) * 17) {
    return false;
  }
  out->ops.clear();
  out->ops.reserve(count);
  std::size_t off = 16;
  for (std::uint32_t i = 0; i < count; ++i) {
    WalOp op;
    op.kind = static_cast<WalOp::Kind>(bytes[off++]);
    std::memcpy(&op.key, bytes.data() + off, 8);
    off += 8;
    std::memcpy(&op.value, bytes.data() + off, 8);
    off += 8;
    out->ops.push_back(op);
  }
  return true;
}

void Wal::Commit(const WalBatch& batch, StatusCb cb) {
  counters_.Increment("commits");
  counters_.Add("ops_logged", batch.ops.size());
  EncodeBatchInto(batch, &encoded_);
  store_->SyncPersist(encoded_, std::move(cb));
}

void Wal::RecoverVerified(BatchesCb cb) {
  counters_.Increment("verified_recoveries");
  store_->RecoverRecords(
      [cb = std::move(cb)](std::vector<std::vector<std::uint8_t>> records) {
        std::vector<WalBatch> out;
        for (const auto& record : records) {
          WalBatch batch;
          if (DecodeBatch(record, &batch)) {
            out.push_back(std::move(batch));
          }
        }
        cb(std::move(out));
      });
}

}  // namespace postblock::db
