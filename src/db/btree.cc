#include "db/btree.h"

#include <cstring>
#include <string>
#include <utility>

namespace postblock::db {

namespace {

// --- node layout helpers -------------------------------------------------
//
// Leaf:     [0] type  [2..3] count  [8..15] next-leaf page id
//           entries at 16: (key u64, value u64) sorted by key
// Internal: [0] type  [2..3] count (= number of separator keys)
//           slot i at 16+i*16: (child_i u64, key_i u64); the final slot
//           holds child_count only.

std::uint16_t NodeCount(const Frame* f) {
  std::uint16_t v;
  std::memcpy(&v, f->bytes.data() + 2, 2);
  return v;
}

void SetNodeCount(Frame* f, std::uint16_t v) {
  std::memcpy(f->bytes.data() + 2, &v, 2);
}

PageType NodeType(const Frame* f) {
  return static_cast<PageType>(f->bytes[0]);
}

std::uint64_t ReadU64(const Frame* f, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, f->bytes.data() + off, 8);
  return v;
}

void WriteU64(Frame* f, std::size_t off, std::uint64_t v) {
  std::memcpy(f->bytes.data() + off, &v, 8);
}

// Leaf accessors.
std::uint64_t LeafKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
std::uint64_t LeafValue(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
void SetLeafEntry(Frame* f, std::uint32_t i, std::uint64_t key,
                  std::uint64_t value) {
  WriteU64(f, 16 + std::size_t{i} * 16, key);
  WriteU64(f, 24 + std::size_t{i} * 16, value);
}
PageId LeafNext(const Frame* f) { return ReadU64(f, 8); }
void SetLeafNext(Frame* f, PageId next) { WriteU64(f, 8, next); }

// First index with key(i) >= key.
std::uint32_t LeafLowerBound(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (LeafKey(f, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void LeafInsertAt(Frame* f, std::uint32_t pos, std::uint64_t key,
                  std::uint64_t value) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               f->bytes.data() + 16 + std::size_t{pos} * 16,
               (count - pos) * std::size_t{16});
  SetLeafEntry(f, pos, key, value);
  SetNodeCount(f, count + 1);
}

void LeafRemoveAt(Frame* f, std::uint32_t pos) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + std::size_t{pos} * 16,
               f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               (count - pos - 1) * std::size_t{16});
  SetNodeCount(f, count - 1);
}

// Internal accessors.
std::uint64_t InternalKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
PageId InternalChild(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
void SetInternalKey(Frame* f, std::uint32_t i, std::uint64_t key) {
  WriteU64(f, 24 + std::size_t{i} * 16, key);
}
void SetInternalChild(Frame* f, std::uint32_t i, PageId child) {
  WriteU64(f, 16 + std::size_t{i} * 16, child);
}

// Child index to descend into for `key`: first i with key < key_i.
std::uint32_t InternalFindIndex(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (key < InternalKey(f, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Inserts separator `key` and right child after child index `idx`.
// Keys shift from idx and children from idx+1 — different ranges, so
// they move as separate arrays, not as interleaved slot pairs.
void InternalInsertAfter(Frame* f, std::uint32_t idx, std::uint64_t key,
                         PageId right) {
  const std::uint16_t count = NodeCount(f);
  for (std::uint32_t j = count; j > idx; --j) {
    SetInternalKey(f, j, InternalKey(f, j - 1));
  }
  for (std::uint32_t j = count + 1; j > idx + 1; --j) {
    SetInternalChild(f, j, InternalChild(f, j - 1));
  }
  SetInternalKey(f, idx, key);
  SetInternalChild(f, idx + 1, right);
  SetNodeCount(f, count + 1);
}

void FormatLeaf(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeLeaf);
  SetLeafNext(f, kInvalidPageId);
}

void FormatInternal(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeInternal);
}

bool IsFull(const Frame* f) {
  if (NodeType(f) == PageType::kBTreeLeaf) {
    return NodeCount(f) >= BTree::kLeafCapacity;
  }
  return NodeCount(f) >= BTree::kInternalCapacity;
}

// Splits `left` (full) into `right` (freshly formatted), returning the
// separator key for the parent.
std::uint64_t SplitNode(Frame* left, Frame* right) {
  const std::uint16_t count = NodeCount(left);
  if (NodeType(left) == PageType::kBTreeLeaf) {
    FormatLeaf(right);
    const std::uint16_t keep = count / 2;
    const std::uint16_t moved = count - keep;
    std::memcpy(right->bytes.data() + 16,
                left->bytes.data() + 16 + std::size_t{keep} * 16,
                std::size_t{moved} * 16);
    SetNodeCount(right, moved);
    SetNodeCount(left, keep);
    SetLeafNext(right, LeafNext(left));
    SetLeafNext(left, right->id);
    return LeafKey(right, 0);
  }
  FormatInternal(right);
  const std::uint16_t mid = count / 2;
  const std::uint64_t separator = InternalKey(left, mid);
  const std::uint16_t moved = count - mid - 1;
  // Right gets children mid+1..count and keys mid+1..count-1.
  std::memcpy(right->bytes.data() + 16,
              left->bytes.data() + 16 + (std::size_t{mid} + 1) * 16,
              std::size_t{moved} * 16 + 8 /* trailing child */);
  SetNodeCount(right, moved);
  SetNodeCount(left, mid);
  return separator;
}

}  // namespace

BTree::BTree(sim::Simulator* sim, BufferPool* pool,
             std::function<PageId()> alloc_page)
    : sim_(sim), pool_(pool), alloc_page_(std::move(alloc_page)) {}

void BTree::Create(StatusCb cb) {
  const PageId root = alloc_page_();
  pool_->Pin(root, [this, root, cb = std::move(cb)](StatusOr<Frame*> f) {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    FormatLeaf(*f);
    root_ = root;
    pool_->Unpin(root, /*dirty=*/true);
    cb(Status::Ok());
  });
}

BTree::Descent* BTree::NewDescent(std::uint64_t key, std::uint64_t value) {
  Descent* d = descents_.Acquire();
  d->key = key;
  d->value = value;
  return d;
}

void BTree::Finish(Descent* d, Status st) {
  StatusCb cb = std::move(d->cb);
  descents_.Release(d);
  cb(std::move(st));
}

// --- Put -------------------------------------------------------------------

void BTree::Put(std::uint64_t key, std::uint64_t value, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("puts");
  Descent* d = NewDescent(key, value);
  d->cb = std::move(cb);
  pool_->Pin(root_, [this, d](StatusOr<Frame*> f) {
    OnPutRoot(d, std::move(f));
  });
}

void BTree::OnPutRoot(Descent* d, StatusOr<Frame*> f) {
  if (!f.ok()) {
    Finish(d, f.status());
    return;
  }
  if (IsFull(*f)) {
    SplitRootAndRetryPut(d, *f);
    return;
  }
  DescendPut(d, *f);
}

void BTree::SplitRootAndRetryPut(Descent* d, Frame* root) {
  counters_.Increment("root_splits");
  d->node = root;
  d->sibling_id = alloc_page_();
  d->new_root_id = alloc_page_();
  pool_->Pin(d->sibling_id, [this, d](StatusOr<Frame*> s) {
    OnRootSibling(d, std::move(s));
  });
}

void BTree::OnRootSibling(Descent* d, StatusOr<Frame*> s) {
  Frame* root = d->node;
  if (!s.ok()) {
    pool_->Unpin(root->id, false);
    Finish(d, s.status());
    return;
  }
  d->sibling = *s;
  d->separator = SplitNode(root, d->sibling);
  pool_->Pin(d->new_root_id, [this, d](StatusOr<Frame*> nr) {
    OnNewRoot(d, std::move(nr));
  });
}

void BTree::OnNewRoot(Descent* d, StatusOr<Frame*> nr) {
  Frame* root = d->node;
  Frame* sibling = d->sibling;
  if (!nr.ok()) {
    pool_->Unpin(root->id, true);
    pool_->Unpin(sibling->id, true);
    Finish(d, nr.status());
    return;
  }
  Frame* new_root = *nr;
  FormatInternal(new_root);
  SetInternalChild(new_root, 0, root->id);
  SetInternalKey(new_root, 0, d->separator);
  SetInternalChild(new_root, 1, d->sibling_id);
  SetNodeCount(new_root, 1);
  root_ = d->new_root_id;
  pool_->Unpin(root->id, true);
  pool_->Unpin(sibling->id, true);
  pool_->Unpin(d->new_root_id, true);
  // Retry from the new root as a fresh Put.
  const std::uint64_t key = d->key;
  const std::uint64_t value = d->value;
  StatusCb cb = std::move(d->cb);
  descents_.Release(d);
  Put(key, value, std::move(cb));
}

void BTree::DescendPut(Descent* d, Frame* node) {
  // `node` is pinned and guaranteed non-full.
  if (NodeType(node) == PageType::kBTreeLeaf) {
    const std::uint32_t pos = LeafLowerBound(node, d->key);
    if (pos < NodeCount(node) && LeafKey(node, pos) == d->key) {
      SetLeafEntry(node, pos, d->key, d->value);  // overwrite
    } else {
      LeafInsertAt(node, pos, d->key, d->value);
    }
    pool_->Unpin(node->id, /*dirty=*/true);
    Finish(d, Status::Ok());
    return;
  }
  d->node = node;
  d->idx = InternalFindIndex(node, d->key);
  pool_->Pin(InternalChild(node, d->idx), [this, d](StatusOr<Frame*> c) {
    OnPutChild(d, std::move(c));
  });
}

void BTree::OnPutChild(Descent* d, StatusOr<Frame*> c) {
  Frame* node = d->node;
  if (!c.ok()) {
    pool_->Unpin(node->id, false);
    Finish(d, c.status());
    return;
  }
  Frame* child = *c;
  if (IsFull(child)) {
    // Preemptive split (parent is non-full by induction), then try
    // this level again — the key may now belong in the new sibling.
    SplitChild(d, child);
    return;
  }
  pool_->Unpin(node->id, false);
  DescendPut(d, child);
}

void BTree::SplitChild(Descent* d, Frame* child) {
  counters_.Increment("node_splits");
  d->child = child;
  d->sibling_id = alloc_page_();
  pool_->Pin(d->sibling_id, [this, d](StatusOr<Frame*> s) {
    OnChildSibling(d, std::move(s));
  });
}

void BTree::OnChildSibling(Descent* d, StatusOr<Frame*> s) {
  Frame* parent = d->node;
  Frame* child = d->child;
  if (!s.ok()) {
    pool_->Unpin(child->id, false);
    pool_->Unpin(parent->id, true);
    Finish(d, s.status());
    return;
  }
  Frame* sibling = *s;
  const std::uint64_t separator = SplitNode(child, sibling);
  InternalInsertAfter(parent, d->idx, separator, d->sibling_id);
  pool_->MarkDirty(parent->id);
  pool_->Unpin(child->id, true);
  pool_->Unpin(d->sibling_id, true);
  DescendPut(d, parent);
}

// --- Get / Delete ------------------------------------------------------------

void BTree::Get(std::uint64_t key, GetCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("gets");
  Descent* d = NewDescent(key, 0);
  d->get_cb = std::move(cb);
  GetStep(d, root_);
}

void BTree::GetStep(Descent* d, PageId id) {
  d->page = id;
  pool_->Pin(id, [this, d](StatusOr<Frame*> f) {
    OnGetNode(d, std::move(f));
  });
}

void BTree::OnGetNode(Descent* d, StatusOr<Frame*> f) {
  if (!f.ok()) {
    GetCb cb = std::move(d->get_cb);
    descents_.Release(d);
    cb(f.status());
    return;
  }
  Frame* node = *f;
  if (NodeType(node) == PageType::kBTreeLeaf) {
    const std::uint32_t pos = LeafLowerBound(node, d->key);
    StatusOr<std::uint64_t> result =
        (pos < NodeCount(node) && LeafKey(node, pos) == d->key)
            ? StatusOr<std::uint64_t>(LeafValue(node, pos))
            : StatusOr<std::uint64_t>(
                  Status::NotFound("key " + std::to_string(d->key)));
    pool_->Unpin(d->page, false);
    GetCb cb = std::move(d->get_cb);
    descents_.Release(d);
    cb(std::move(result));
    return;
  }
  const PageId child = InternalChild(node, InternalFindIndex(node, d->key));
  pool_->Unpin(d->page, false);
  GetStep(d, child);
}

void BTree::Delete(std::uint64_t key, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("deletes");
  Descent* d = NewDescent(key, 0);
  d->cb = std::move(cb);
  DeleteStep(d, root_);
}

void BTree::DeleteStep(Descent* d, PageId id) {
  d->page = id;
  pool_->Pin(id, [this, d](StatusOr<Frame*> f) {
    OnDeleteNode(d, std::move(f));
  });
}

void BTree::OnDeleteNode(Descent* d, StatusOr<Frame*> f) {
  if (!f.ok()) {
    Finish(d, f.status());
    return;
  }
  Frame* node = *f;
  if (NodeType(node) == PageType::kBTreeLeaf) {
    const std::uint32_t pos = LeafLowerBound(node, d->key);
    bool removed = false;
    if (pos < NodeCount(node) && LeafKey(node, pos) == d->key) {
      LeafRemoveAt(node, pos);
      removed = true;
    }
    pool_->Unpin(d->page, removed);
    Finish(d, Status::Ok());
    return;
  }
  const PageId child = InternalChild(node, InternalFindIndex(node, d->key));
  pool_->Unpin(d->page, false);
  DeleteStep(d, child);
}

// --- Scan ---------------------------------------------------------------------

void BTree::Scan(std::uint64_t lo, std::uint64_t hi, ScanCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("scans");
  Descent* d = NewDescent(lo, hi);
  d->scan_cb = std::move(cb);
  d->results.clear();
  ScanDescend(d, root_);
}

void BTree::ScanDescend(Descent* d, PageId id) {
  d->page = id;
  pool_->Pin(id, [this, d](StatusOr<Frame*> f) {
    OnScanInner(d, std::move(f));
  });
}

void BTree::OnScanInner(Descent* d, StatusOr<Frame*> f) {
  if (!f.ok()) {
    ScanWalk(d, kInvalidPageId);  // deliver what we have (empty)
    return;
  }
  Frame* node = *f;
  if (NodeType(node) == PageType::kBTreeLeaf) {
    pool_->Unpin(d->page, false);
    ScanWalk(d, d->page);
    return;
  }
  const PageId child = InternalChild(node, InternalFindIndex(node, d->key));
  pool_->Unpin(d->page, false);
  ScanDescend(d, child);
}

void BTree::ScanWalk(Descent* d, PageId id) {
  if (id == kInvalidPageId) {
    FinishScan(d, std::move(d->results));
    return;
  }
  d->page = id;
  pool_->Pin(id, [this, d](StatusOr<Frame*> f) {
    OnScanLeaf(d, std::move(f));
  });
}

void BTree::OnScanLeaf(Descent* d, StatusOr<Frame*> f) {
  if (!f.ok()) {
    FinishScan(d, f.status());
    return;
  }
  Frame* leaf = *f;
  const std::uint64_t lo = d->key;
  const std::uint64_t hi = d->value;
  bool past_hi = false;
  for (std::uint32_t i = 0; i < NodeCount(leaf); ++i) {
    const std::uint64_t k = LeafKey(leaf, i);
    if (k < lo) continue;
    if (k > hi) {
      past_hi = true;
      break;
    }
    d->results.emplace_back(k, LeafValue(leaf, i));
  }
  const PageId next = past_hi ? kInvalidPageId : LeafNext(leaf);
  pool_->Unpin(d->page, false);
  ScanWalk(d, next);
}

void BTree::FinishScan(
    Descent* d,
    StatusOr<std::vector<std::pair<std::uint64_t, std::uint64_t>>> r) {
  ScanCb cb = std::move(d->scan_cb);
  d->results.clear();
  descents_.Release(d);
  cb(std::move(r));
}

}  // namespace postblock::db
