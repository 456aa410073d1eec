#include "db/host_map.h"

#include <utility>

namespace postblock::db {

HostMap::HostMap(sim::Simulator* sim, host::HostInterface* dev,
                 std::uint64_t num_pages, std::uint32_t page_bytes)
    : sim_(sim), dev_(dev), num_pages_(num_pages),
      page_bytes_(page_bytes) {
  // The peer channel: the device tells us about every page it moves,
  // before the old name can go stale under a future read.
  dev_->SetMigrationHandler(
      [this](std::uint64_t old_name, std::uint64_t new_name) {
        OnMigration(old_name, new_name);
      });
}

HostMap::Tracker* HostMap::NewTracker(std::uint32_t pages,
                                      blocklayer::IoCallback cb) {
  Tracker* t = trackers_.Acquire();
  t->remaining = pages;
  t->first_error = Status::Ok();
  t->result.tokens.clear();
  t->cb = std::move(cb);
  return t;
}

void HostMap::Submit(blocklayer::IoRequest request) {
  if (!blocklayer::IsBlockOp(request.op)) {
    RouteNonBlockOp(std::move(request));
    return;
  }
  counters_.Increment("requests");
  if (request.op == blocklayer::IoOp::kFlush) {
    Tracker* t = NewTracker(1, std::move(request.on_complete));
    blocklayer::IoRequest f = blocklayer::IoRequest::Flush(
        [this, t](const blocklayer::IoResult& res) {
          OnPage(t, 0, res.status, 0);
        });
    f.span = request.span;
    dev_->Submit(std::move(f));
    return;
  }
  if (request.nblocks == 0) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (!blocklayer::ExtentInRange(request.lba, request.nblocks, num_pages_)) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::OutOfRange("request beyond host map"), {}});
    });
    return;
  }
  if (request.op == blocklayer::IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }

  Tracker* t = NewTracker(request.nblocks, std::move(request.on_complete));
  if (request.op == blocklayer::IoOp::kRead) {
    t->result.tokens.assign(request.nblocks, 0);
  }
  switch (request.op) {
    case blocklayer::IoOp::kRead:
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        ReadPage(request.lba + i, 0, t, i);
      }
      return;
    case blocklayer::IoOp::kWrite:
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        WritePage(request.lba + i, request.tokens[i], t, i);
      }
      return;
    case blocklayer::IoOp::kTrim:
      // Drop the mapping now; the name dies at the next FreeRetired so
      // a crash between trim and checkpoint commit can still recover
      // the old copy.
      for (std::uint32_t i = 0; i < request.nblocks; ++i) {
        const PageId page = request.lba + i;
        auto it = map_.find(page);
        if (it != map_.end()) {
          counters_.Increment("trims");
          retired_.push_back(it->second);
          name_to_page_.erase(it->second);
          map_.erase(it);
        }
        sim_->Schedule(0, [this, t, i]() { OnPage(t, i, Status::Ok(), 0); });
      }
      return;
    default:
      sim_->Schedule(0, [this, t]() {
        OnPage(t, 0, Status::InvalidArgument("unsupported op"), 0);
      });
      return;
  }
}

void HostMap::OnPage(Tracker* t, std::uint32_t index, Status st,
                     std::uint64_t token) {
  if (!st.ok() && t->first_error.ok()) t->first_error = std::move(st);
  if (index < t->result.tokens.size()) t->result.tokens[index] = token;
  if (--t->remaining > 0) return;
  // Released after the callback, which may submit again: the result it
  // is reading lives in this tracker.
  blocklayer::IoCallback cb = std::move(t->cb);
  t->result.status = t->first_error;
  if (cb) cb(t->result);
  trackers_.Release(t);
}

void HostMap::ReadPage(PageId page, int tries, Tracker* t,
                       std::uint32_t index) {
  auto it = map_.find(page);
  if (it == map_.end()) {
    // Never written (or trimmed): reads as zeroes, like an unmapped LBA.
    counters_.Increment("zero_reads");
    sim_->Schedule(0,
                   [this, t, index]() { OnPage(t, index, Status::Ok(), 0); });
    return;
  }
  counters_.Increment("reads");
  auto done = [this, page, t, tries, index](const blocklayer::IoResult& res) {
    if (res.status.ok()) {
      OnPage(t, index, Status::Ok(), res.tokens.empty() ? 0 : res.tokens[0]);
      return;
    }
    if (res.status.IsNotFound() && tries < 3) {
      // The device migrated the page between our lookup and its
      // read — its callback already updated the map. Re-resolve.
      counters_.Increment("read_retries");
      ReadPage(page, tries + 1, t, index);
      return;
    }
    OnPage(t, index, res.status, 0);
  };
  static_assert(blocklayer::IoCallback::fits<decltype(done)>());
  dev_->Submit(
      blocklayer::IoRequest::NamelessRead(it->second, std::move(done)));
}

void HostMap::WritePage(PageId page, std::uint64_t token, Tracker* t,
                        std::uint32_t index) {
  counters_.Increment("writes");
  dev_->Submit(blocklayer::IoRequest::NamelessWriteTagged(
      token, page, static_cast<std::uint32_t>(epoch_),
      [this, page, t, index](const blocklayer::IoResult& res) {
        if (!res.status.ok()) {
          OnPage(t, index, res.status, 0);
          return;
        }
        if (res.tokens.empty()) {
          OnPage(t, index,
                 Status::Internal("nameless write returned no name"), 0);
          return;
        }
        const std::uint64_t name = res.tokens[0];
        auto old = map_.find(page);
        if (old != map_.end()) {
          retired_.push_back(old->second);
          Rename(old->second, name, page);
          old->second = name;
        } else {
          map_[page] = name;
          name_to_page_[name] = page;
        }
        OnPage(t, index, Status::Ok(), 0);
      }));
}

void HostMap::Rename(std::uint64_t old_name, std::uint64_t name,
                     PageId page) {
  auto node = name_to_page_.extract(old_name);
  if (node.empty()) {
    name_to_page_[name] = page;
    return;
  }
  node.key() = name;
  node.mapped() = page;
  auto inserted = name_to_page_.insert(std::move(node));
  if (!inserted.inserted) inserted.position->second = page;
}

void HostMap::FreeRetired(StatusCb cb) {
  if (retired_.empty()) {
    sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
    return;
  }
  Tracker* t = NewTracker(0, nullptr);
  t->names.swap(retired_);  // retired_ takes the tracker's empty buffer
  t->remaining = static_cast<std::uint32_t>(t->names.size());
  t->free_cb = std::move(cb);
  counters_.Add("retired_freed", t->names.size());
  const std::size_t n = t->names.size();
  for (std::size_t i = 0; i < n; ++i) {
    dev_->Submit(blocklayer::IoRequest::NamelessFree(
        t->names[i], [this, t](const blocklayer::IoResult& res) {
          OnFreed(t, res);
        }));
  }
}

void HostMap::OnFreed(Tracker* t, const blocklayer::IoResult& res) {
  // NotFound = already gone (crash reclaim); not an error.
  if (!res.status.ok() && !res.status.IsNotFound() && t->first_error.ok()) {
    t->first_error = res.status;
  }
  if (!res.status.ok() && res.status.IsNotFound()) {
    counters_.Increment("free_stale");
  }
  if (--t->remaining > 0) return;
  StatusCb cb = std::move(t->free_cb);
  const Status st = t->first_error;
  t->names.clear();
  trackers_.Release(t);
  cb(st);
}

void HostMap::OnMigration(std::uint64_t old_name, std::uint64_t new_name) {
  auto it = name_to_page_.find(old_name);
  if (it != name_to_page_.end()) {
    const PageId page = it->second;
    Rename(old_name, new_name, page);
    map_[page] = new_name;
    counters_.Increment("migrations");
    return;
  }
  // A retired (not-yet-freed) copy can be migrated too; track it so the
  // eventual free hits the right name instead of leaking the page.
  for (std::uint64_t& name : retired_) {
    if (name == old_name) {
      name = new_name;
      counters_.Increment("retired_migrations");
      return;
    }
  }
  counters_.Increment("stale_migrations");
}

void HostMap::Crash() {
  counters_.Increment("crashes");
  map_.clear();
  name_to_page_.clear();
  retired_.clear();
}

void HostMap::Adopt(PageId page, std::uint64_t name) {
  map_[page] = name;
  name_to_page_[name] = page;
}

bool HostMap::Lookup(PageId page, std::uint64_t* name) const {
  auto it = map_.find(page);
  if (it == map_.end()) return false;
  if (name != nullptr) *name = it->second;
  return true;
}

}  // namespace postblock::db
