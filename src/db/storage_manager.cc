#include "db/storage_manager.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace postblock::db {

namespace {
constexpr std::uint64_t kMetaMagic = 0x504f535442444233ull;  // "POSTBDB3"
// Meta page field offsets.
constexpr std::size_t kOffMagic = 8;
constexpr std::size_t kOffRoot = 16;
constexpr std::size_t kOffHeapFirst = 24;
constexpr std::size_t kOffHeapLast = 32;
constexpr std::size_t kOffNextPage = 40;
// Classic mode: log blocks reserved at the top of the LBA space.
constexpr std::uint64_t kWalRegionBlocks = 64;
// Vision mode: PCM log region size.
constexpr std::uint64_t kPcmLogBytes = 8 * kMiB;
}  // namespace

const char* WiringName(Wiring w) {
  return w == Wiring::kClassic ? "classic" : "vision";
}

StorageManager::StorageManager(sim::Simulator* sim, ssd::Device* device,
                               const StorageConfig& config)
    : sim_(sim), device_(device), config_(config) {
  if (config_.wiring == Wiring::kVision) {
    pcm_ = std::make_unique<pcm::PcmDevice>(sim_,
                                            pcm::PcmConfig{kPcmLogBytes});
    pcm_log_ = std::make_unique<core::PcmLog>(sim_, pcm_.get(), 0,
                                              kPcmLogBytes);
    direct_ = std::make_unique<blocklayer::DirectDriver>(sim_, device_);
    // Capability probe, not config peeking: a device that issues names
    // has no logical address space, so page IO must run over the
    // host-owned map speaking the nameless vocabulary.
    if (direct_->Supports(blocklayer::IoOp::kNamelessWrite)) {
      host_map_ = std::make_unique<HostMap>(sim_, direct_.get(),
                                            device_->num_blocks(),
                                            device_->block_bytes());
    }
    store_ = std::make_unique<core::HybridStore>(sim_, pcm_log_.get());
  } else {
    block_layer_ = std::make_unique<blocklayer::BlockLayer>(
        sim_, device_, config_.block_layer);
    store_ = std::make_unique<core::HybridStore>(
        sim_, block_layer_.get(),
        /*log_region_start=*/DataRegionBlocks(),
        /*log_region_blocks=*/kWalRegionBlocks);
  }
  RebuildVolatileState();
}

StorageManager::~StorageManager() = default;

std::uint64_t StorageManager::DataRegionBlocks() const {
  const std::uint64_t total = device_->num_blocks();
  return config_.wiring == Wiring::kClassic
             ? total - kWalRegionBlocks
             : total;
}

void StorageManager::RebuildVolatileState() {
  if (pool_ == nullptr) {
    blocklayer::BlockDevice* data_path =
        config_.wiring == Wiring::kVision
            ? (host_map_ != nullptr
                   ? static_cast<blocklayer::BlockDevice*>(host_map_.get())
                   : static_cast<blocklayer::BlockDevice*>(direct_.get()))
            : static_cast<blocklayer::BlockDevice*>(block_layer_.get());
    pool_ = std::make_unique<BufferPool>(sim_, data_path, &images_,
                                         config_.buffer_frames);
  }
  wal_ = std::make_unique<Wal>(store_.get());
  tree_ = std::make_unique<BTree>(sim_, pool_.get(),
                                  [this]() { return AllocPage(); });
  heap_ = std::make_unique<HeapFile>(sim_, pool_.get(),
                                     [this]() { return AllocPage(); });
}

void StorageManager::WriteMetaInto(Frame* frame) {
  std::fill(frame->bytes.begin(), frame->bytes.end(), 0);
  PageView view(&frame->bytes);
  view.set_type(PageType::kMeta);
  view.WriteU64(kOffMagic, kMetaMagic);
  view.WriteU64(kOffRoot, tree_->root());
  view.WriteU64(kOffHeapFirst, heap_->first_page());
  view.WriteU64(kOffHeapLast, heap_->tail_page());
  view.WriteU64(kOffNextPage, next_page_id_);
}

void StorageManager::ReadMetaFrom(Frame* frame) {
  PageView view(&frame->bytes);
  tree_->Open(view.ReadU64(kOffRoot));
  heap_->Open(view.ReadU64(kOffHeapFirst), view.ReadU64(kOffHeapLast));
  next_page_id_ = view.ReadU64(kOffNextPage);
}

void StorageManager::Bootstrap(StatusCb cb) {
  counters_.Increment("bootstraps");
  tree_->Create([this, cb = std::move(cb)](Status st) mutable {
    if (!st.ok()) {
      cb(std::move(st));
      return;
    }
    heap_->Create([this, cb = std::move(cb)](Status st2) mutable {
      if (!st2.ok()) {
        cb(std::move(st2));
        return;
      }
      Checkpoint(std::move(cb));
    });
  });
}

StorageManager::Txn* StorageManager::NewTxn(StatusCb cb) {
  Txn* txn = txns_.Acquire();
  txn->batch.ops.clear();
  txn->next_op = 0;
  txn->cb = std::move(cb);
  return txn;
}

void StorageManager::Put(std::uint64_t key, std::uint64_t value,
                         StatusCb cb) {
  Txn* txn = NewTxn(std::move(cb));
  txn->batch.ops.push_back(WalOp{WalOp::Kind::kPut, key, value});
  CommitTxn(txn);
}

void StorageManager::Delete(std::uint64_t key, StatusCb cb) {
  Txn* txn = NewTxn(std::move(cb));
  txn->batch.ops.push_back(WalOp{WalOp::Kind::kDelete, key, 0});
  CommitTxn(txn);
}

void StorageManager::Get(std::uint64_t key, GetCb cb) {
  counters_.Increment("gets");
  tree_->Get(key, std::move(cb));
}

void StorageManager::CommitBatch(std::vector<WalOp> ops, StatusCb cb) {
  Txn* txn = NewTxn(std::move(cb));
  txn->batch.ops.assign(ops.begin(), ops.end());
  CommitTxn(txn);
}

void StorageManager::CommitTxn(Txn* txn) {
  counters_.Increment("txns");
  txn->batch.txn_id = next_txn_id_++;
  txn->start = sim_->Now();
  wal_->Commit(txn->batch,
               [this, txn](Status st) { OnCommitted(txn, std::move(st)); });
}

void StorageManager::OnCommitted(Txn* txn, Status st) {
  const SimTime latency = sim_->Now() - txn->start;
  commit_latency_.Record(latency);
  if (metrics_ != nullptr) metrics_->Record(m_commit_lat_, latency);
  if (!st.ok()) {
    FinishTxn(txn, std::move(st));
    return;
  }
  // Deferred update: the transaction is durable (redo-logged); now
  // apply it to the tree in memory.
  ApplyOps(txn);
}

void StorageManager::ApplyOps(Txn* txn) {
  if (txn->next_op >= txn->batch.ops.size()) {
    FinishTxn(txn, Status::Ok());
    return;
  }
  const WalOp& op = txn->batch.ops[txn->next_op];
  auto next = [this, txn](Status st) {
    if (!st.ok()) {
      FinishTxn(txn, std::move(st));
      return;
    }
    ++txn->next_op;
    ApplyOps(txn);
  };
  static_assert(BTree::StatusCb::fits<decltype(next)>());
  if (op.kind == WalOp::Kind::kPut) {
    tree_->Put(op.key, op.value, next);
  } else {
    tree_->Delete(op.key, next);
  }
}

void StorageManager::FinishTxn(Txn* txn, Status st) {
  StatusCb cb = std::move(txn->cb);
  txns_.Release(txn);
  cb(std::move(st));
}

void StorageManager::Checkpoint(StatusCb cb) {
  counters_.Increment("checkpoints");
  Ckpt* ck = ckpts_.Acquire();
  ck->cb = std::move(cb);
  // Stage the meta page alongside the data pages so the whole snapshot
  // lands together.
  pool_->Pin(0, [this, ck](StatusOr<Frame*> meta) {
    OnMetaPinned(ck, std::move(meta));
  });
}

void StorageManager::OnMetaPinned(Ckpt* ck, StatusOr<Frame*> meta) {
  if (!meta.ok()) {
    FinishCheckpoint(ck, meta.status());
    return;
  }
  WriteMetaInto(*meta);
  pool_->Unpin(0, /*dirty=*/true);

  if (config_.wiring == Wiring::kVision && host_map_ != nullptr) {
    // Post-block checkpoint: no atomic-write command needed — the
    // epoch protocol makes the meta page the commit point.
    CheckpointNameless(ck);
    return;
  }
  if (config_.wiring == Wiring::kVision &&
      direct_->Supports(blocklayer::IoOp::kAtomicGroup)) {
    // Atomic checkpoint: every dirty page + meta flips visibility as
    // one group — no torn-checkpoint window (the paper's atomic-write
    // command, ref [17]). A capability probe, like the append-region
    // probe that wires the host map.
    std::vector<std::pair<Lba, std::uint64_t>> group;
    ck->ids.clear();
    pool_->DirtyFrames(&ck->dirty);
    for (Frame* frame : ck->dirty) {
      group.emplace_back(frame->id, images_.Register(frame->id, frame->bytes));
      ck->ids.push_back(frame->id);
    }
    ck->mark = images_.last_token();
    counters_.Add("checkpoint_pages", group.size());
    direct_->Submit(blocklayer::IoRequest::AtomicGroup(
        std::move(group), [this, ck](const blocklayer::IoResult& res) {
          if (res.status.ok()) {
            for (PageId id : ck->ids) pool_->MarkClean(id);
            images_.AcknowledgeThrough(ck->mark);
          }
          OnCheckpointFlushed(ck, res.status);
        }));
    return;
  }
  // Classic: plain write-back of each dirty page + flush barrier. The
  // flush registers its page images inside the call (its completions
  // arrive in later events), so the mark is read right after it.
  pool_->FlushAll([this, ck](Status st) {
    if (st.ok()) images_.AcknowledgeThrough(ck->mark);
    OnCheckpointFlushed(ck, std::move(st));
  });
  ck->mark = images_.last_token();
}

void StorageManager::OnCheckpointFlushed(Ckpt* ck, Status st) {
  if (!st.ok()) {
    FinishCheckpoint(ck, std::move(st));
    return;
  }
  wal_->Truncate(
      [this, ck](Status st2) { FinishCheckpoint(ck, std::move(st2)); });
}

void StorageManager::FinishCheckpoint(Ckpt* ck, Status st) {
  StatusCb cb = std::move(ck->cb);
  ckpts_.Release(ck);
  cb(std::move(st));
}

void StorageManager::CheckpointNameless(Ckpt* ck) {
  // Every page in this checkpoint is written under epoch S+1 while the
  // committed checkpoint is still S; old copies are retired, not freed.
  // The meta page (owner 0) is written *last*: the instant it lands,
  // epoch S+1 is the recovery image. Only then do the retired copies
  // die — a crash anywhere earlier leaves epoch S fully intact.
  host_map_->set_epoch(ckpt_seq_ + 1);
  ck->ids.clear();
  pool_->DirtyFrames(&ck->dirty);
  for (Frame* frame : ck->dirty) {
    if (frame->id != 0) ck->ids.push_back(frame->id);
  }
  std::sort(ck->ids.begin(), ck->ids.end());
  counters_.Add("checkpoint_pages", ck->ids.size() + 1);
  if (ck->ids.empty()) {
    NamelessWriteMeta(ck, Status::Ok());
    return;
  }
  pool_->FlushPages(ck->ids, [this, ck](Status st) {
    NamelessWriteMeta(ck, std::move(st));
  });
}

void StorageManager::NamelessWriteMeta(Ckpt* ck, Status st) {
  if (!st.ok()) {
    OnCheckpointFlushed(ck, std::move(st));
    return;
  }
  pool_->FlushPage(
      0, [this, ck](Status st2) { OnNamelessMeta(ck, std::move(st2)); });
  ck->mark = images_.last_token();  // the meta image: the newest
}

void StorageManager::OnNamelessMeta(Ckpt* ck, Status st) {
  if (!st.ok()) {
    OnCheckpointFlushed(ck, std::move(st));
    return;
  }
  ++ckpt_seq_;  // the commit point is durable
  images_.AcknowledgeThrough(ck->mark);
  host_map_->FreeRetired(
      [this, ck](Status st2) { OnCheckpointFlushed(ck, std::move(st2)); });
}

Status StorageManager::SimulateCrash() {
  counters_.Increment("crashes");
  // Power the stack down from the bottom up: each layer's epoch bump
  // silences its in-flight completions, so nothing half-finished leaks
  // into the post-crash world.
  PB_RETURN_IF_ERROR(device_->PowerCycle());
  if (pcm_ != nullptr) {
    pcm_->PowerCycle();
    pcm_log_->ResetAfterCrash();
  }
  if (direct_ != nullptr) direct_->PowerCycle();
  if (block_layer_ != nullptr) block_layer_->PowerCycle();
  pool_->PowerCycle();
  // The host-owned map is DRAM: gone. Recover() rebuilds it from the
  // device's live-names scan.
  if (host_map_ != nullptr) host_map_->Crash();
  // Writes no checkpoint acknowledged are forgotten; their images stay
  // (a torn write may have landed) until a later acknowledged write of
  // the same page supersedes them.
  images_.ForgetUnacknowledged();
  // Volatile host objects (tree/heap/wal handles) are rebuilt empty;
  // Recover() re-attaches them to the durable state.
  RebuildVolatileState();
  return Status::Ok();
}

void StorageManager::RegisterMetrics(metrics::MetricRegistry* m) {
  metrics_ = m;
  for (const char* name : {"txns", "gets", "checkpoints"}) {
    m->AddPolledCounter(std::string("db.") + name,
                        [this, name] { return counters_.Get(name); });
  }
  m_commit_lat_ = m->AddHistogram("db.commit_lat_ns");
  // WAL: commit rate and logical bytes synced through the store (the
  // classic-mode padding overhead is sync_padded_bytes - sync_bytes).
  m->AddPolledCounter("wal.commits", [this] {
    return wal_->counters().Get("commits");
  });
  m->AddPolledCounter("wal.ops_logged", [this] {
    return wal_->counters().Get("ops_logged");
  });
  m->AddPolledCounter("wal.bytes", [this] {
    return store_->counters().Get("sync_bytes");
  });
  m->AddPolledCounter("wal.padded_bytes", [this] {
    return store_->counters().Get("sync_padded_bytes");
  });
  static constexpr const char* kPool[] = {"hits", "misses", "evictions",
                                          "writebacks"};
  for (const char* name : kPool) {
    m->AddPolledCounter(std::string("bp.") + name, [this, name] {
      return pool_->counters().Get(name);
    });
  }
  m->AddGauge("bp.hit_rate", [this] {
    const double hits =
        static_cast<double>(pool_->counters().Get("hits"));
    const double misses =
        static_cast<double>(pool_->counters().Get("misses"));
    return hits + misses == 0 ? 0.0 : hits / (hits + misses);
  });
  static constexpr const char* kTree[] = {"gets", "puts", "deletes",
                                          "node_splits"};
  for (const char* name : kTree) {
    m->AddPolledCounter(std::string("bt.") + name, [this, name] {
      return tree_->counters().Get(name);
    });
  }
  // Vision-mode substrate registers itself; the classic-mode block
  // layer registers at construction via StorageConfig::block_layer
  // .metrics (ctor-time wiring, like the device's Config::metrics).
  if (direct_ != nullptr) direct_->RegisterMetrics(m);
  if (pcm_ != nullptr) pcm_->RegisterMetrics(m);
}

}  // namespace postblock::db
