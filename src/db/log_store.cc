#include "db/log_store.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace postblock::db {

LogStructuredStore::LogStructuredStore(sim::Simulator* sim,
                                       blocklayer::BlockDevice* device,
                                       const Options& options)
    : sim_(sim), device_(device), options_(options) {
  const std::uint64_t segment_count =
      device->num_blocks() / options_.segment_pages;
  segments_.resize(segment_count);
  segments_[0].free = false;
  segments_[0].active = true;
  active_segment_ = 0;
  active_page_ = 0;
}

std::uint64_t LogStructuredStore::SegmentsInUse() const {
  std::uint64_t n = 0;
  for (const auto& s : segments_) n += !s.free;
  return n;
}

double LogStructuredStore::HostWriteAmplification() const {
  const std::uint64_t fresh = counters_.Get("fresh_records");
  if (fresh == 0) return 0.0;
  const double fresh_pages = static_cast<double>(fresh) /
                             static_cast<double>(options_.records_per_page);
  return static_cast<double>(counters_.Get("pages_written")) / fresh_pages;
}

void LogStructuredStore::Put(std::uint64_t key, std::uint64_t value,
                             StatusCb cb) {
  counters_.Increment("puts");
  AppendRecord(key, value, /*fresh=*/true, std::move(cb));
}

void LogStructuredStore::AppendRecord(std::uint64_t key,
                                      std::uint64_t value, bool fresh,
                                      StatusCb cb) {
  if (fresh) {
    counters_.Increment("fresh_records");
  } else {
    counters_.Increment("compaction_rewrites");
  }
  // Kill the previous version.
  auto it = index_.find(key);
  if (it != index_.end()) {
    --segments_[it->second.segment].live;
  }
  Segment& seg = segments_[active_segment_];
  index_[key] = RecordLoc{active_segment_, active_page_,
                          static_cast<std::uint32_t>(open_page_.size())};
  ++seg.live;
  ++seg.total;
  open_page_.emplace_back(key, value);
  if (cb) open_page_cbs_.push_back(std::move(cb));
  if (open_page_.size() >= options_.records_per_page) {
    FlushOpenPage();
  }
}

void LogStructuredStore::Flush(StatusCb cb) {
  if (open_page_.empty()) {
    sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
    return;
  }
  FlushOpenPage(std::move(cb));
}

void LogStructuredStore::FlushOpenPage(StatusCb extra_cb) {
  const std::uint64_t token = next_token_++;
  page_payloads_[token] = open_page_;
  const Lba lba = SegmentBase(active_segment_) + active_page_;
  auto cbs = std::make_shared<std::vector<StatusCb>>(
      std::move(open_page_cbs_));
  if (extra_cb) cbs->push_back(std::move(extra_cb));
  open_page_.clear();
  open_page_cbs_.clear();
  counters_.Increment("pages_written");
  const std::uint32_t segment = active_segment_;
  ++segments_[segment].pending_io;

  blocklayer::IoRequest w;
  w.op = blocklayer::IoOp::kWrite;
  w.lba = lba;
  w.nblocks = 1;
  w.tokens = {token};
  w.on_complete = [this, segment, cbs](const blocklayer::IoResult& r) {
    --segments_[segment].pending_io;
    for (auto& cb : *cbs) cb(r.status);
    MaybeCompact();  // the segment may have just become compactable
  };
  device_->Submit(std::move(w));

  ++active_page_;
  SealActiveIfFull();
}

void LogStructuredStore::SealActiveIfFull() {
  if (active_page_ < options_.segment_pages) return;
  segments_[active_segment_].active = false;
  if (!OpenNextSegment()) {
    // No free segment: compaction must free one before the next page
    // flush; writes into the open page still buffer meanwhile.
    counters_.Increment("segment_exhaustion");
  }
  MaybeCompact();
}

bool LogStructuredStore::OpenNextSegment() {
  for (std::uint32_t s = 0; s < segments_.size(); ++s) {
    if (segments_[s].free) {
      segments_[s] = Segment{};
      segments_[s].active = true;
      segments_[s].free = false;
      active_segment_ = s;
      active_page_ = 0;
      return true;
    }
  }
  return false;
}

void LogStructuredStore::Delete(std::uint64_t key, StatusCb cb) {
  counters_.Increment("deletes");
  auto it = index_.find(key);
  if (it != index_.end()) {
    --segments_[it->second.segment].live;
    index_.erase(it);
    MaybeCompact();
  }
  sim_->Schedule(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
}

void LogStructuredStore::Get(std::uint64_t key, GetCb cb) {
  counters_.Increment("gets");
  GetAttempt(key, 0, std::move(cb));
}

void LogStructuredStore::GetAttempt(std::uint64_t key, int tries,
                                    GetCb cb) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::NotFound("key not in store"));
    });
    return;
  }
  const RecordLoc loc = it->second;
  // Still in the open (unwritten) page?
  if (loc.segment == active_segment_ && loc.page == active_page_) {
    const std::uint64_t value = loc.slot < open_page_.size()
                                    ? open_page_[loc.slot].second
                                    : 0;
    sim_->Schedule(0, [cb = std::move(cb), value]() { cb(value); });
    return;
  }
  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = SegmentBase(loc.segment) + loc.page;
  r.nblocks = 1;
  r.on_complete = [this, key, loc, tries, cb = std::move(cb)](
                      const blocklayer::IoResult& res) mutable {
    if (!res.status.ok()) {
      cb(res.status);
      return;
    }
    const auto pit = page_payloads_.find(res.tokens[0]);
    if (pit != page_payloads_.end() && loc.slot < pit->second.size() &&
        pit->second[loc.slot].first == key) {
      cb(pit->second[loc.slot].second);
      return;
    }
    // The record moved (compaction raced the read); chase the index.
    if (tries >= 3) {
      cb(Status::Internal("log store read retry limit"));
      return;
    }
    GetAttempt(key, tries + 1, std::move(cb));
  };
  device_->Submit(std::move(r));
}

void LogStructuredStore::MaybeCompact() {
  if (compacting_) return;
  std::int64_t best = -1;
  std::uint32_t best_dead = 0;
  for (std::uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    if (seg.free || seg.active || seg.pending_io > 0 || seg.total == 0) {
      continue;
    }
    const std::uint32_t dead = seg.total - seg.live;
    const double frac =
        static_cast<double>(dead) / static_cast<double>(seg.total);
    if (frac >= options_.compact_threshold && dead > best_dead) {
      best = s;
      best_dead = dead;
    }
  }
  if (best < 0) return;
  compacting_ = true;
  counters_.Increment("compactions");
  compact_victim_ = static_cast<std::uint32_t>(best);
  compact_page_ = 0;
  CompactStep();
}

void LogStructuredStore::CompactStep() {
  const std::uint32_t victim = compact_victim_;
  if (compact_page_ >= options_.segment_pages) {
    // Everything live rewritten: release the segment.
    segments_[victim] = Segment{};  // free
    if (options_.trim_dead_segments) {
      blocklayer::IoRequest t;
      t.op = blocklayer::IoOp::kTrim;
      t.lba = SegmentBase(victim);
      t.nblocks = options_.segment_pages;
      t.on_complete = [this](const blocklayer::IoResult&) {
        FinishCompaction();
      };
      device_->Submit(std::move(t));
    } else {
      FinishCompaction();
    }
    return;
  }
  const std::uint32_t p = compact_page_++;
  blocklayer::IoRequest r;
  r.op = blocklayer::IoOp::kRead;
  r.lba = SegmentBase(victim) + p;
  r.nblocks = 1;
  r.on_complete = [this, victim, p](const blocklayer::IoResult& res) {
    if (res.status.ok()) {
      const auto pit = page_payloads_.find(res.tokens[0]);
      if (pit != page_payloads_.end()) {
        for (std::uint32_t slot = 0; slot < pit->second.size(); ++slot) {
          const auto [key, value] = pit->second[slot];
          const auto iit = index_.find(key);
          if (iit != index_.end() &&
              iit->second == RecordLoc{victim, p, slot}) {
            AppendRecord(key, value, /*fresh=*/false, nullptr);
          }
        }
        // The page's cells are dead now; drop the payload entry.
        page_payloads_.erase(pit);
      }
    }
    CompactStep();
  };
  device_->Submit(std::move(r));
}

void LogStructuredStore::FinishCompaction() {
  compacting_ = false;
  MaybeCompact();
}

}  // namespace postblock::db
