// Crash recovery for db::StorageManager: attach to the last durable
// checkpoint (meta page), then redo every durable WAL batch in commit
// order. Redo is logical (B+-tree put/delete), which is sound because
// the buffer pool runs no-steal and updates are deferred past WAL
// durability — the on-device tree is always exactly the last checkpoint
// (see DESIGN.md §4 invariants).

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/storage_manager.h"
#include "flash/page_store.h"

namespace postblock::db {

/// Drives the asynchronous replay: one WAL batch at a time, each batch's
/// ops applied in order through a transaction record.
struct RecoveryDriver {
  StorageManager* manager;
  std::vector<WalBatch> batches;
  std::size_t index = 0;
  StorageManager::StatusCb cb;

  static void Run(std::shared_ptr<RecoveryDriver> self) {
    StorageManager* m = self->manager;
    if (self->index >= self->batches.size()) {
      m->counters_.Add("recovered_batches", self->batches.size());
      self->cb(Status::Ok());
      return;
    }
    StorageManager::Txn* txn = m->NewTxn([self](Status st) {
      if (!st.ok()) {
        self->cb(std::move(st));
        return;
      }
      Run(self);
    });
    txn->batch.ops = std::move(self->batches[self->index].ops);
    ++self->index;
    m->ApplyOps(txn);
  }
};

void StorageManager::Recover(StatusCb cb) {
  counters_.Increment("recoveries");
  if (config_.wiring == Wiring::kVision && host_map_ != nullptr) {
    // Post-block prologue: the device kept no L2P, so before the meta
    // page can even be read the host must rebuild its map from the
    // device's live names + OOB owner stamps.
    RebuildHostMap([this, cb = std::move(cb)](Status st) mutable {
      if (!st.ok()) {
        cb(std::move(st));
        return;
      }
      RecoverFromMeta(std::move(cb));
    });
    return;
  }
  RecoverFromMeta(std::move(cb));
}

void StorageManager::RebuildHostMap(StatusCb cb) {
  // Control-path scan (no simulated IO): every live page's name plus
  // the (owner page id, checkpoint epoch) the host stamped into its OOB
  // at write time.
  const auto names = device_->LiveNames();
  // The committed checkpoint is the newest epoch whose *meta* page
  // (owner 0) survived — the meta write is the commit point, so any
  // higher-epoch page is an orphan of a torn checkpoint.
  std::uint64_t ckpt = 0;
  for (const auto& ln : names) {
    if (ln.owner == 0 && ln.owner_epoch > ckpt) ckpt = ln.owner_epoch;
  }
  // Per page id keep the newest copy with epoch <= ckpt; everything
  // else — orphans, superseded copies, unstamped pages — is junk to
  // free (it was never reachable from the committed meta).
  struct Copy {
    std::uint64_t epoch;
    std::uint64_t name;
  };
  std::unordered_map<PageId, Copy> best;
  std::vector<std::uint64_t> junk;
  for (const auto& ln : names) {
    if (ln.owner == flash::kNamelessLba || ln.owner_epoch == 0 ||
        ln.owner_epoch > ckpt) {
      junk.push_back(ln.name);
      continue;
    }
    auto [it, inserted] = best.try_emplace(
        static_cast<PageId>(ln.owner), Copy{ln.owner_epoch, ln.name});
    if (inserted) continue;
    if (ln.owner_epoch > it->second.epoch) {
      junk.push_back(it->second.name);
      it->second = Copy{ln.owner_epoch, ln.name};
    } else {
      junk.push_back(ln.name);
    }
  }
  host_map_->Crash();  // start from an empty map
  for (const auto& [page, copy] : best) host_map_->Adopt(page, copy.name);
  host_map_->set_epoch(ckpt);
  ckpt_seq_ = ckpt;
  counters_.Add("recovered_names", best.size());
  counters_.Add("orphan_names", junk.size());
  if (junk.empty()) {
    sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
    return;
  }
  // Reclaim the junk before replay so the append device gets its space
  // back. NotFound is tolerated (a migration may have renamed a copy
  // between scan and free — the generation guard makes that benign).
  auto remaining = std::make_shared<std::size_t>(junk.size());
  auto shared_cb = std::make_shared<StatusCb>(std::move(cb));
  for (std::uint64_t name : junk) {
    direct_->Submit(blocklayer::IoRequest::NamelessFree(
        name, blocklayer::IoCallback(
                  [remaining, shared_cb](const blocklayer::IoResult& res) {
                    (void)res;  // NotFound tolerated
                    if (--*remaining == 0) (*shared_cb)(Status::Ok());
                  })));
  }
}

void StorageManager::RecoverFromMeta(StatusCb cb) {
  pool_->Pin(0, [this, cb = std::move(cb)](StatusOr<Frame*> meta) mutable {
    if (!meta.ok()) {
      cb(meta.status());
      return;
    }
    PageView view(&(*meta)->bytes);
    if (view.type() != PageType::kMeta) {
      pool_->Unpin(0, false);
      cb(Status::DataLoss("meta page missing or corrupt"));
      return;
    }
    ReadMetaFrom(*meta);
    pool_->Unpin(0, false);

    // Media-verified replay: re-read the log from the device so an
    // uncorrectable log page truncates redo at the torn point instead
    // of replaying past a hole.
    wal_->RecoverVerified(
        [this, cb = std::move(cb)](std::vector<WalBatch> batches) mutable {
          auto driver = std::make_shared<RecoveryDriver>();
          driver->manager = this;
          driver->batches = std::move(batches);
          driver->cb = std::move(cb);
          RecoveryDriver::Run(std::move(driver));
        });
  });
}

}  // namespace postblock::db
