#ifndef POSTBLOCK_DB_BUFFER_POOL_H_
#define POSTBLOCK_DB_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "db/page.h"
#include "db/page_image.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace postblock::db {

/// One cached page frame. Contents are raw bytes; use PageView.
struct Frame {
  PageId id = kInvalidPageId;
  std::vector<std::uint8_t> bytes;
  int pins = 0;
  bool dirty = false;
};

/// Page cache over a block device, with LRU eviction and asynchronous
/// miss handling.
///
/// No-steal: dirty frames are never written back by eviction, only by
/// explicit FlushPage/FlushAll at commit/checkpoint time. Together with
/// the storage manager's deferred-update policy this keeps the
/// on-device tree exactly at the last checkpoint, which is what makes
/// logical WAL redo sound (see DESIGN.md).
class BufferPool {
 public:
  using PinCallback = sim::InplaceFunction<void(StatusOr<Frame*>)>;
  using StatusCb = sim::InplaceFunction<void(Status)>;

  BufferPool(sim::Simulator* sim, blocklayer::BlockDevice* device,
             PageImageStore* images, std::size_t frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins a page, loading it from the device on a miss. The frame stays
  /// resident until the matching Unpin.
  void Pin(PageId id, PinCallback cb);

  /// Releases a pin; `dirty` marks the frame modified.
  void Unpin(PageId id, bool dirty);

  /// Marks a resident frame modified without changing its pin count.
  void MarkDirty(PageId id) {
    auto it = frames_.find(id);
    if (it != frames_.end()) it->second->dirty = true;
  }

  /// Writes one dirty frame back (no-op if clean or absent).
  void FlushPage(PageId id, StatusCb cb);

  /// Writes each listed frame back as FlushPage would, in order; fires
  /// once all of them completed, with the first error if any.
  void FlushPages(const std::vector<PageId>& ids, StatusCb cb);

  /// Writes every dirty frame back; fires when all are durable (plus a
  /// device flush barrier).
  void FlushAll(StatusCb cb);

  /// Simulates power loss: every frame, pin, pending load and waiter is
  /// gone (the lower layers' epoch guards keep stale completions from
  /// ever reaching this pool again).
  void PowerCycle();

  /// Replaces `out`'s contents with the resident dirty frames — for
  /// externally orchestrated checkpoints (e.g. the storage manager's
  /// atomic-write checkpoint). `out` keeps its capacity.
  void DirtyFrames(std::vector<Frame*>* out) const;
  /// Marks a frame clean after such a checkpoint persisted it.
  void MarkClean(PageId id) {
    auto it = frames_.find(id);
    if (it != frames_.end()) it->second->dirty = false;
  }

  std::size_t resident() const { return frames_.size(); }
  std::size_t dirty_count() const;
  const Counters& counters() const { return counters_; }

 private:
  /// One flush call's pages in flight: FlushPage, FlushPages and
  /// FlushAll all write through a pooled group, and every page's
  /// completion reaches it as {this, id, group*}.
  struct FlushGroup {
    std::size_t remaining = 0;
    Status first_error;
    bool barrier = false;  // FlushAll: a device flush follows the pages
    StatusCb cb;
  };

  void LoadFrame(PageId id);
  bool EvictOne();
  void Touch(PageId id);
  FlushGroup* NewGroup(std::size_t pages, bool barrier, StatusCb cb);
  void StartFlush(const std::vector<PageId>& ids, bool barrier, StatusCb cb);
  void FlushInto(PageId id, FlushGroup* g);
  void OnPageFlushed(FlushGroup* g, const Status& st);
  /// Every page of `g` completed: the barrier, if any, then the callback.
  void CompleteGroup(FlushGroup* g);
  void FinishGroup(FlushGroup* g, Status st);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* device_;
  PageImageStore* images_;
  std::size_t capacity_;

  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  std::list<PageId> lru_;  // front = most recent
  std::unordered_map<PageId, std::list<PageId>::iterator> lru_pos_;
  std::unordered_map<PageId, std::vector<PinCallback>> loading_;
  sim::RecordPool<FlushGroup> flush_groups_;
  /// FlushAll's dirty-page list, kept for its capacity.
  std::vector<PageId> flush_ids_;

  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_BUFFER_POOL_H_
