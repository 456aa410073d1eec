#ifndef POSTBLOCK_DB_BTREE_H_
#define POSTBLOCK_DB_BTREE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "db/buffer_pool.h"
#include "db/page.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace postblock::db {

/// Disk-resident B+-tree (uint64 key -> uint64 value) over the buffer
/// pool. Single-pass inserts with preemptive splits; deletes drop leaf
/// entries without rebalancing (underflow tolerated — the common
/// engineering simplification); leaves are chained for range scans.
///
/// All operations are asynchronous: page misses become block-device
/// reads in simulated time, so tree traffic shares the IO stack with
/// everything else — exactly the DB workload the paper routes through
/// its redesigned storage interface.
class BTree {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  // A missing key completes NotFound.
  using GetCb = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;
  using ScanCb = sim::InplaceFunction<void(
      StatusOr<std::vector<std::pair<std::uint64_t, std::uint64_t>>>)>;

  BTree(sim::Simulator* sim, BufferPool* pool,
        std::function<PageId()> alloc_page);

  /// Formats a fresh root leaf. The tree is unusable before Create/Open.
  void Create(StatusCb cb);
  /// Attaches to an existing tree (after recovery).
  void Open(PageId root) { root_ = root; }
  PageId root() const { return root_; }

  void Put(std::uint64_t key, std::uint64_t value, StatusCb cb);
  void Get(std::uint64_t key, GetCb cb);
  void Delete(std::uint64_t key, StatusCb cb);
  /// All pairs with lo <= key <= hi, in key order.
  void Scan(std::uint64_t lo, std::uint64_t hi, ScanCb cb);

  const Counters& counters() const { return counters_; }

  // Node capacities (exposed for tests that exercise splits).
  static constexpr std::uint32_t kLeafHeader = 16;
  static constexpr std::uint32_t kLeafCapacity =
      (kPageBytes - kLeafHeader) / 16;
  static constexpr std::uint32_t kInternalHeader = 24;
  static constexpr std::uint32_t kInternalCapacity =
      (kPageBytes - kInternalHeader) / 16;

 private:
  /// One operation's walk down the tree (and, for a scan, along the
  /// leaves). Pooled: every page pin continues through a {this, op*}
  /// capture, so a descent allocates nothing; the record carries what
  /// the continuations need between pins.
  struct Descent {
    std::uint64_t key = 0;    // Put/Get/Delete key; Scan: lo
    std::uint64_t value = 0;  // Put value; Scan: hi
    PageId page = kInvalidPageId;  // the page being pinned
    Frame* node = nullptr;    // Put: the pinned parent
    Frame* child = nullptr;   // Put: the full node being split
    Frame* sibling = nullptr;
    std::uint32_t idx = 0;    // Put: child index within `node`
    PageId sibling_id = kInvalidPageId;
    PageId new_root_id = kInvalidPageId;
    std::uint64_t separator = 0;
    StatusCb cb;              // Put, Delete
    GetCb get_cb;
    ScanCb scan_cb;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> results;
  };

  Descent* NewDescent(std::uint64_t key, std::uint64_t value);
  void Finish(Descent* d, Status st);

  void OnPutRoot(Descent* d, StatusOr<Frame*> f);
  void DescendPut(Descent* d, Frame* node);
  void OnPutChild(Descent* d, StatusOr<Frame*> c);
  void SplitChild(Descent* d, Frame* child);
  void OnChildSibling(Descent* d, StatusOr<Frame*> s);
  void SplitRootAndRetryPut(Descent* d, Frame* root);
  void OnRootSibling(Descent* d, StatusOr<Frame*> s);
  void OnNewRoot(Descent* d, StatusOr<Frame*> nr);

  void GetStep(Descent* d, PageId id);
  void OnGetNode(Descent* d, StatusOr<Frame*> f);
  void DeleteStep(Descent* d, PageId id);
  void OnDeleteNode(Descent* d, StatusOr<Frame*> f);
  void ScanDescend(Descent* d, PageId id);
  void OnScanInner(Descent* d, StatusOr<Frame*> f);
  void ScanWalk(Descent* d, PageId id);
  void OnScanLeaf(Descent* d, StatusOr<Frame*> f);
  void FinishScan(
      Descent* d,
      StatusOr<std::vector<std::pair<std::uint64_t, std::uint64_t>>> r);

  sim::Simulator* sim_;
  BufferPool* pool_;
  std::function<PageId()> alloc_page_;
  PageId root_ = kInvalidPageId;
  sim::RecordPool<Descent> descents_;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_BTREE_H_
