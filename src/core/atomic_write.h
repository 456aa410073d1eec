#ifndef POSTBLOCK_CORE_ATOMIC_WRITE_H_
#define POSTBLOCK_CORE_ATOMIC_WRITE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/status.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace postblock::core {

/// What a database must do *without* device atomic writes: a double-
/// write journal over the plain block interface (InnoDB-style). Every
/// atomic group costs 2n+2 block writes and two flush barriers. The
/// native command (Ouyang et al. [17]) is one IoRequest::AtomicGroup
/// through Submit, which the page-map FTL executes with one extra
/// commit-marker page.
class JournaledAtomicWriter {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;

  /// `journal_start`/`journal_blocks` reserve an LBA region on `dev`.
  JournaledAtomicWriter(sim::Simulator* sim, blocklayer::BlockDevice* dev,
                        Lba journal_start, std::uint64_t journal_blocks);

  void WriteAtomic(std::vector<std::pair<Lba, std::uint64_t>> pages,
                   StatusCb cb);

  const Histogram& latency() const { return latency_; }
  const Counters& counters() const { return counters_; }

 private:
  /// One atomic group through its four phases: journal writes, journal
  /// barrier, home writes, final barrier. Pooled; its extent vectors
  /// keep their capacity and every IO completes through {this, group*}.
  struct Group {
    enum class Phase { kJournal, kJournalFlush, kHome, kFinalFlush };
    Phase phase = Phase::kJournal;
    SimTime start = 0;
    std::vector<std::pair<Lba, std::uint64_t>> journal;
    std::vector<std::pair<Lba, std::uint64_t>> home;
    std::size_t remaining = 0;
    Status first_error;
    StatusCb cb;
  };

  /// Writes `pages` as plain block writes; Advance(g) runs once all
  /// completed (with the first error, if any).
  void WriteBatch(Group* g,
                  const std::vector<std::pair<Lba, std::uint64_t>>& pages);
  void Flush(Group* g);
  /// Moves `g` to its next phase after the current one finished with
  /// `st`; an error or the last phase completes the group.
  void Advance(Group* g, Status st);

  sim::Simulator* sim_;
  blocklayer::BlockDevice* dev_;
  Lba journal_start_;
  std::uint64_t journal_blocks_;
  std::uint64_t journal_head_ = 0;
  sim::RecordPool<Group> groups_;
  Histogram latency_;
  Counters counters_;
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_ATOMIC_WRITE_H_
