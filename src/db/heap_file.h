#ifndef POSTBLOCK_DB_HEAP_FILE_H_
#define POSTBLOCK_DB_HEAP_FILE_H_

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

/// Record identifier: (page, slot).
struct Rid {
  PageId page = kInvalidPageId;
  std::uint32_t slot = 0;

  friend bool operator==(const Rid&, const Rid&) = default;
};

/// Append-oriented heap file of fixed 16-byte records (two u64 fields),
/// pages chained through a next pointer. The classic slotted-file
/// substrate for scans and RID lookups; complements the B+-tree.
///
/// Page layout: [0] type, [2..3] count, [8..15] next page id,
/// records at 16.
class HeapFile {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;
  using AppendCb = sim::InplaceFunction<void(StatusOr<Rid>)>;
  using GetCb = sim::InplaceFunction<void(
      StatusOr<std::pair<std::uint64_t, std::uint64_t>>)>;
  using ScanCb = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;  // count
  using VisitFn =
      sim::InplaceFunction<void(Rid, std::uint64_t, std::uint64_t)>;

  static constexpr std::uint32_t kRecordsPerPage = (kPageBytes - 16) / 16;

  HeapFile(sim::Simulator* sim, BufferPool* pool,
           std::function<PageId()> alloc_page);

  /// Formats the first page.
  void Create(StatusCb cb);
  void Open(PageId first, PageId last) {
    first_page_ = first;
    tail_page_ = last;
  }
  PageId first_page() const { return first_page_; }
  PageId tail_page() const { return tail_page_; }

  /// Appends one record at the tail, chaining a fresh page when full.
  void Append(std::uint64_t a, std::uint64_t b, AppendCb cb);

  /// Reads one record by RID.
  void Get(Rid rid, GetCb cb);

  /// Full scan; `visit` sees each record, completion delivers the count.
  void Scan(VisitFn visit, ScanCb cb);

  const Counters& counters() const { return counters_; }

 private:
  /// One scan's walk along the page chain. Pooled; each page pin
  /// continues through a {this, walk*} capture.
  struct ScanWalk {
    VisitFn visit;
    ScanCb cb;
    std::uint64_t total = 0;
    PageId page = kInvalidPageId;
  };

  void ScanStep(ScanWalk* w, PageId id);
  void OnScanPage(ScanWalk* w, StatusOr<Frame*> f);
  void FinishScan(ScanWalk* w, StatusOr<std::uint64_t> r);

  sim::Simulator* sim_;
  BufferPool* pool_;
  std::function<PageId()> alloc_page_;
  PageId first_page_ = kInvalidPageId;
  PageId tail_page_ = kInvalidPageId;
  sim::RecordPool<ScanWalk> scans_;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_HEAP_FILE_H_
