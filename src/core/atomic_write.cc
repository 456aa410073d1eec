#include "core/atomic_write.h"

#include <utility>

namespace postblock::core {

JournaledAtomicWriter::JournaledAtomicWriter(sim::Simulator* sim,
                                             blocklayer::BlockDevice* dev,
                                             Lba journal_start,
                                             std::uint64_t journal_blocks)
    : sim_(sim),
      dev_(dev),
      journal_start_(journal_start),
      journal_blocks_(journal_blocks) {}

void JournaledAtomicWriter::WriteBatch(
    Group* g, const std::vector<std::pair<Lba, std::uint64_t>>& pages) {
  g->remaining = pages.size();
  g->first_error = Status::Ok();
  for (const auto& [lba, token] : pages) {
    blocklayer::IoRequest w;
    w.op = blocklayer::IoOp::kWrite;
    w.lba = lba;
    w.nblocks = 1;
    w.tokens = {token};
    w.on_complete = [this, g](const blocklayer::IoResult& r) {
      if (!r.status.ok() && g->first_error.ok()) g->first_error = r.status;
      if (--g->remaining == 0) Advance(g, g->first_error);
    };
    dev_->Submit(std::move(w));
  }
}

void JournaledAtomicWriter::Flush(Group* g) {
  blocklayer::IoRequest f;
  f.op = blocklayer::IoOp::kFlush;
  f.nblocks = 1;
  f.on_complete = [this, g](const blocklayer::IoResult& r) {
    Advance(g, r.status);
  };
  dev_->Submit(std::move(f));
}

void JournaledAtomicWriter::WriteAtomic(
    std::vector<std::pair<Lba, std::uint64_t>> pages, StatusCb cb) {
  Group* g = groups_.Acquire();
  g->phase = Group::Phase::kJournal;
  g->start = sim_->Now();
  g->cb = std::move(cb);
  counters_.Increment("atomic_writes");
  counters_.Add("pages", pages.size());

  // Phase 1: journal copies (descriptor + data + commit record).
  auto jslot = [this]() {
    return journal_start_ + (journal_head_++ % journal_blocks_);
  };
  g->journal.clear();
  g->journal.emplace_back(jslot(), /*descriptor token*/ 0xDE5C);
  for (const auto& p : pages) g->journal.emplace_back(jslot(), p.second);
  g->journal.emplace_back(jslot(), /*commit token*/ 0xC0117);
  counters_.Add("journal_writes", g->journal.size());
  g->home.assign(pages.begin(), pages.end());
  WriteBatch(g, g->journal);
}

void JournaledAtomicWriter::Advance(Group* g, Status st) {
  if (st.ok()) {
    switch (g->phase) {
      case Group::Phase::kJournal:
        g->phase = Group::Phase::kJournalFlush;
        Flush(g);
        return;
      case Group::Phase::kJournalFlush:
        // Phase 2: home-location writes, then the final barrier.
        g->phase = Group::Phase::kHome;
        counters_.Add("home_writes", g->home.size());
        WriteBatch(g, g->home);
        return;
      case Group::Phase::kHome:
        g->phase = Group::Phase::kFinalFlush;
        Flush(g);
        return;
      case Group::Phase::kFinalFlush:
        break;
    }
  }
  latency_.Record(sim_->Now() - g->start);
  StatusCb cb = std::move(g->cb);
  groups_.Release(g);
  cb(std::move(st));
}

}  // namespace postblock::core
