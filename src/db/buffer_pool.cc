#include "db/buffer_pool.h"

#include <utility>

namespace postblock::db {

BufferPool::BufferPool(sim::Simulator* sim,
                       blocklayer::BlockDevice* device,
                       PageImageStore* images, std::size_t frames)
    : sim_(sim), device_(device), images_(images), capacity_(frames) {}

std::size_t BufferPool::dirty_count() const {
  std::size_t n = 0;
  for (const auto& [id, f] : frames_) n += f->dirty;
  return n;
}

void BufferPool::Touch(PageId id) {
  auto it = lru_pos_.find(id);
  if (it != lru_pos_.end()) {
    // Relink the page's node at the front: no node is freed or made.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
}

void BufferPool::Pin(PageId id, PinCallback cb) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    counters_.Increment("hits");
    ++it->second->pins;
    Touch(id);
    cb(it->second.get());
    return;
  }
  auto [lit, first] = loading_.try_emplace(id);
  lit->second.push_back(std::move(cb));
  if (!first) {
    counters_.Increment("miss_waits");  // piggyback on in-flight load
    return;
  }
  counters_.Increment("misses");

  // Make room. Eviction is synchronous bookkeeping; a pool full of
  // pinned or dirty frames (no-steal) is a configuration error surfaced
  // to the caller.
  while (frames_.size() + loading_.size() > capacity_) {
    if (!EvictOne()) {
      auto waiters = std::move(loading_[id]);
      loading_.erase(id);
      for (auto& w : waiters) {
        w(Status::ResourceExhausted(
            "buffer pool full of pinned/dirty pages (no-steal)"));
      }
      return;
    }
  }
  LoadFrame(id);
}

bool BufferPool::EvictOne() {
  for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
    const PageId victim = *rit;
    auto fit = frames_.find(victim);
    if (fit == frames_.end()) continue;
    Frame* f = fit->second.get();
    if (f->pins > 0 || f->dirty) continue;
    counters_.Increment("evictions");
    lru_.erase(lru_pos_[victim]);
    lru_pos_.erase(victim);
    frames_.erase(fit);
    return true;
  }
  return false;
}

void BufferPool::LoadFrame(PageId id) {
  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = id;
  r.nblocks = 1;
  r.on_complete = [this, id](const blocklayer::IoResult& res) {
    auto waiters = std::move(loading_[id]);
    loading_.erase(id);
    if (!res.status.ok()) {
      for (auto& w : waiters) w(res.status);
      return;
    }
    auto frame = std::make_unique<Frame>();
    frame->id = id;
    const std::vector<std::uint8_t>* image =
        images_->Fetch(res.tokens.empty() ? 0 : res.tokens[0]);
    frame->bytes = image != nullptr
                       ? *image
                       : std::vector<std::uint8_t>(kPageBytes, 0);
    frame->pins = static_cast<int>(waiters.size());
    Frame* raw = frame.get();
    frames_[id] = std::move(frame);
    Touch(id);
    for (auto& w : waiters) w(raw);
  };
  device_->Submit(std::move(r));
}

void BufferPool::Unpin(PageId id, bool dirty) {
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  Frame* f = it->second.get();
  if (f->pins > 0) --f->pins;
  if (dirty) f->dirty = true;
}

BufferPool::FlushGroup* BufferPool::NewGroup(std::size_t pages,
                                             bool barrier, StatusCb cb) {
  FlushGroup* g = flush_groups_.Acquire();
  g->remaining = pages;
  g->first_error = Status::Ok();
  g->barrier = barrier;
  g->cb = std::move(cb);
  return g;
}

void BufferPool::FlushPage(PageId id, StatusCb cb) {
  FlushInto(id, NewGroup(1, /*barrier=*/false, std::move(cb)));
}

void BufferPool::FlushPages(const std::vector<PageId>& ids, StatusCb cb) {
  StartFlush(ids, /*barrier=*/false, std::move(cb));
}

void BufferPool::FlushAll(StatusCb cb) {
  flush_ids_.clear();
  for (const auto& [id, f] : frames_) {
    if (f->dirty) flush_ids_.push_back(id);
  }
  StartFlush(flush_ids_, /*barrier=*/true, std::move(cb));
}

void BufferPool::StartFlush(const std::vector<PageId>& ids, bool barrier,
                            StatusCb cb) {
  FlushGroup* g = NewGroup(ids.size(), barrier, std::move(cb));
  if (ids.empty()) {
    CompleteGroup(g);
    return;
  }
  // Page completions arrive in later events, so `ids` (possibly this
  // pool's own scratch list) is not touched again once the loop ends.
  for (PageId id : ids) FlushInto(id, g);
}

void BufferPool::FlushInto(PageId id, FlushGroup* g) {
  auto it = frames_.find(id);
  if (it == frames_.end() || !it->second->dirty) {
    sim_->Schedule(0, [this, g] { OnPageFlushed(g, Status::Ok()); });
    return;
  }
  Frame* f = it->second.get();
  const std::uint64_t token = images_->Register(id, f->bytes);
  counters_.Increment("writebacks");
  blocklayer::IoRequest w;
  w.op = blocklayer::IoOp::kWrite;
  w.lba = id;
  w.nblocks = 1;
  w.tokens = {token};
  w.on_complete = [this, id, g](const blocklayer::IoResult& res) {
    if (res.status.ok()) {
      auto it = frames_.find(id);
      if (it != frames_.end()) it->second->dirty = false;
    }
    OnPageFlushed(g, res.status);
  };
  device_->Submit(std::move(w));
}

void BufferPool::OnPageFlushed(FlushGroup* g, const Status& st) {
  if (!st.ok() && g->first_error.ok()) g->first_error = st;
  if (--g->remaining == 0) CompleteGroup(g);
}

void BufferPool::CompleteGroup(FlushGroup* g) {
  if (!g->barrier || !g->first_error.ok()) {
    FinishGroup(g, std::move(g->first_error));
    return;
  }
  blocklayer::IoRequest f;
  f.op = blocklayer::IoOp::kFlush;
  f.nblocks = 1;
  f.on_complete = [this, g](const blocklayer::IoResult& r) {
    FinishGroup(g, r.status);
  };
  device_->Submit(std::move(f));
}

void BufferPool::FinishGroup(FlushGroup* g, Status st) {
  StatusCb cb = std::move(g->cb);
  flush_groups_.Release(g);
  cb(std::move(st));
}

void BufferPool::DirtyFrames(std::vector<Frame*>* out) const {
  out->clear();
  for (const auto& [id, f] : frames_) {
    if (f->dirty) out->push_back(f.get());
  }
}

void BufferPool::PowerCycle() {
  frames_.clear();
  lru_.clear();
  lru_pos_.clear();
  loading_.clear();
  counters_.Increment("power_cycles");
}

}  // namespace postblock::db
