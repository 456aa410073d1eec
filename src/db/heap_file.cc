#include "db/heap_file.h"

#include <cstring>
#include <utility>

namespace postblock::db {

namespace {

std::uint16_t Count(const Frame* f) {
  std::uint16_t v;
  std::memcpy(&v, f->bytes.data() + 2, 2);
  return v;
}
void SetCount(Frame* f, std::uint16_t v) {
  std::memcpy(f->bytes.data() + 2, &v, 2);
}
PageId Next(const Frame* f) {
  PageId v;
  std::memcpy(&v, f->bytes.data() + 8, 8);
  return v;
}
void SetNext(Frame* f, PageId v) {
  std::memcpy(f->bytes.data() + 8, &v, 8);
}
void ReadRecord(const Frame* f, std::uint32_t slot, std::uint64_t* a,
                std::uint64_t* b) {
  std::memcpy(a, f->bytes.data() + 16 + std::size_t{slot} * 16, 8);
  std::memcpy(b, f->bytes.data() + 24 + std::size_t{slot} * 16, 8);
}
void WriteRecord(Frame* f, std::uint32_t slot, std::uint64_t a,
                 std::uint64_t b) {
  std::memcpy(f->bytes.data() + 16 + std::size_t{slot} * 16, &a, 8);
  std::memcpy(f->bytes.data() + 24 + std::size_t{slot} * 16, &b, 8);
}
void Format(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kHeap);
  SetNext(f, kInvalidPageId);
}

}  // namespace

HeapFile::HeapFile(sim::Simulator* sim, BufferPool* pool,
                   std::function<PageId()> alloc_page)
    : sim_(sim), pool_(pool), alloc_page_(std::move(alloc_page)) {}

void HeapFile::Create(StatusCb cb) {
  const PageId first = alloc_page_();
  pool_->Pin(first, [this, first, cb = std::move(cb)](StatusOr<Frame*> f) {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    Format(*f);
    first_page_ = tail_page_ = first;
    pool_->Unpin(first, true);
    cb(Status::Ok());
  });
}

void HeapFile::Append(std::uint64_t a, std::uint64_t b, AppendCb cb) {
  if (tail_page_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("heap file not created/opened"));
    });
    return;
  }
  counters_.Increment("appends");
  pool_->Pin(tail_page_, [this, a, b,
                          cb = std::move(cb)](StatusOr<Frame*> f) mutable {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    Frame* tail = *f;
    const std::uint16_t count = Count(tail);
    if (count < kRecordsPerPage) {
      WriteRecord(tail, count, a, b);
      SetCount(tail, count + 1);
      const Rid rid{tail->id, count};
      pool_->Unpin(tail->id, true);
      cb(rid);
      return;
    }
    // Chain a fresh page.
    const PageId fresh = alloc_page_();
    pool_->Pin(fresh, [this, tail, fresh, a, b,
                       cb = std::move(cb)](StatusOr<Frame*> nf) mutable {
      if (!nf.ok()) {
        pool_->Unpin(tail->id, false);
        cb(nf.status());
        return;
      }
      Format(*nf);
      WriteRecord(*nf, 0, a, b);
      SetCount(*nf, 1);
      SetNext(tail, fresh);
      tail_page_ = fresh;
      pool_->Unpin(tail->id, true);
      pool_->Unpin(fresh, true);
      counters_.Increment("page_chains");
      cb(Rid{fresh, 0});
    });
  });
}

void HeapFile::Get(Rid rid, GetCb cb) {
  counters_.Increment("gets");
  pool_->Pin(rid.page, [this, rid,
                        cb = std::move(cb)](StatusOr<Frame*> f) mutable {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    Frame* page = *f;
    if (static_cast<PageType>(page->bytes[0]) != PageType::kHeap ||
        rid.slot >= Count(page)) {
      pool_->Unpin(rid.page, false);
      cb(Status::NotFound("no record at rid"));
      return;
    }
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    ReadRecord(page, rid.slot, &a, &b);
    pool_->Unpin(rid.page, false);
    cb(std::make_pair(a, b));
  });
}

void HeapFile::Scan(VisitFn visit, ScanCb cb) {
  counters_.Increment("scans");
  ScanWalk* w = scans_.Acquire();
  w->visit = std::move(visit);
  w->cb = std::move(cb);
  w->total = 0;
  ScanStep(w, first_page_);
}

void HeapFile::ScanStep(ScanWalk* w, PageId id) {
  if (id == kInvalidPageId) {
    FinishScan(w, w->total);
    return;
  }
  w->page = id;
  pool_->Pin(id, [this, w](StatusOr<Frame*> f) {
    OnScanPage(w, std::move(f));
  });
}

void HeapFile::OnScanPage(ScanWalk* w, StatusOr<Frame*> f) {
  if (!f.ok()) {
    FinishScan(w, f.status());
    return;
  }
  Frame* page = *f;
  const std::uint16_t count = Count(page);
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    ReadRecord(page, s, &a, &b);
    w->visit(Rid{w->page, s}, a, b);
  }
  w->total += count;
  const PageId next = Next(page);
  pool_->Unpin(w->page, false);
  ScanStep(w, next);
}

void HeapFile::FinishScan(ScanWalk* w, StatusOr<std::uint64_t> r) {
  ScanCb cb = std::move(w->cb);
  w->visit = nullptr;
  scans_.Release(w);
  cb(std::move(r));
}

}  // namespace postblock::db
