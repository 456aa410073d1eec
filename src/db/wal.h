#ifndef POSTBLOCK_DB_WAL_H_
#define POSTBLOCK_DB_WAL_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/hybrid_store.h"
#include "sim/inplace_callback.h"

namespace postblock::db {

/// One logged operation (logical redo record).
struct WalOp {
  enum class Kind : std::uint8_t { kPut = 1, kDelete = 2 };
  Kind kind = Kind::kPut;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// A committed transaction's record batch.
struct WalBatch {
  std::uint64_t txn_id = 0;
  std::vector<WalOp> ops;
};

/// Serialization (stable little-endian layout). EncodeBatchInto reuses
/// `out`'s capacity.
std::vector<std::uint8_t> EncodeBatch(const WalBatch& batch);
void EncodeBatchInto(const WalBatch& batch, std::vector<std::uint8_t>* out);
bool DecodeBatch(const std::vector<std::uint8_t>& bytes, WalBatch* out);

/// Write-ahead log over a core::HybridStore: the commit path is one
/// SyncPersist — sub-microsecond on the PCM route, a page program plus
/// flush on the classic block-device route (the paper's E7 contrast).
class Wal {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using BatchesCb = sim::InplaceFunction<void(std::vector<WalBatch>)>;

  explicit Wal(core::HybridStore* store) : store_(store) {}

  /// Appends a commit record; callback fires when durable. The record
  /// is encoded into a buffer the log reuses, so a commit stream makes
  /// no per-commit allocation here.
  void Commit(const WalBatch& batch, StatusCb cb);

  /// Media-verified recovery: re-reads the log from the device and
  /// replays only the intact prefix — a log page lost to an
  /// uncorrectable media error truncates replay at the torn point (see
  /// core::HybridStore::RecoverRecords). Asynchronous because the
  /// verification reads go through the whole IO stack.
  void RecoverVerified(BatchesCb cb);

  /// Empties the log after a checkpoint.
  void Truncate(StatusCb cb) { store_->TruncateLog(std::move(cb)); }

  const Counters& counters() const { return counters_; }

 private:
  core::HybridStore* store_;
  /// Encoded commit record; the store copies it before SyncPersist
  /// returns, so one buffer serves every commit.
  std::vector<std::uint8_t> encoded_;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_WAL_H_
