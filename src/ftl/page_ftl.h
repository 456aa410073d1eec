#ifndef POSTBLOCK_FTL_PAGE_FTL_H_
#define POSTBLOCK_FTL_PAGE_FTL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "ftl/ftl.h"
#include "ftl/gc_policy.h"
#include "ftl/mapping_types.h"
#include "ftl/placement.h"
#include "ftl/wear_leveler.h"
#include "sim/pool.h"
#include "sim/ring.h"
#include "ssd/controller.h"

namespace postblock::ftl {

/// Full page-level mapping FTL — the design the paper credits for
/// making random writes cheap on modern SSDs (Myth 2): any write can be
/// placed on any LUN, so the scheduler stripes writes across channels
/// regardless of the LBA pattern.
///
/// Implements the complete Figure 2 controller: scheduling & mapping,
/// garbage collection (greedy or cost-benefit victims, per-LUN, with
/// relocation traffic that interferes with host IO), wear leveling
/// (dynamic allocation bias + optional static cold-data migration), bad
/// block retirement, TRIM, multi-page atomic write groups with an
/// on-flash commit marker, and OOB-scan crash recovery (PowerCycle).
class PageFtl : public Ftl {
 public:
  /// Free blocks reserved per LUN for GC relocation writes (host writes
  /// stall rather than take the last kReserveBlocks free blocks).
  static constexpr std::uint32_t kReserveBlocks = 1;

  /// `logical_pages` overrides the host-visible page count (used by
  /// Dftl to extend the space with translation pages); 0 = derive from
  /// config.UserPages().
  PageFtl(ssd::Controller* controller, std::uint64_t logical_pages = 0);
  ~PageFtl() override = default;

  PageFtl(const PageFtl&) = delete;
  PageFtl& operator=(const PageFtl&) = delete;

  // --- Ftl interface -----------------------------------------------
  void Write(Lba lba, std::uint64_t token, WriteCallback cb,
             trace::Ctx ctx = {}) override;
  void Read(Lba lba, ReadCallback cb, trace::Ctx ctx = {}) override;
  void Trim(Lba lba, WriteCallback cb, trace::Ctx ctx = {}) override;
  std::uint64_t user_pages() const override { return logical_pages_; }
  const Counters& counters() const override { return counters_; }
  double WriteAmplification() const override;
  /// A full page map pays controller DRAM for every logical page
  /// whether or not it holds data — 8 B/entry, the figure the paper's
  /// mapping-table argument (and E8's table) uses.
  std::uint64_t MappingTableBytes() const override {
    return map_.size() * 8;
  }
  void RegisterMetrics(metrics::MetricRegistry* m) override;

  // --- Extended (vision) interface ---------------------------------
  /// Atomically writes a set of pages: either all mappings flip (after
  /// an on-flash commit marker is durable) or none survive recovery.
  void WriteAtomic(std::vector<std::pair<Lba, std::uint64_t>> pages,
                   WriteCallback cb, trace::Ctx ctx = {});

  /// Current physical location of a mapped LBA (tests, benches).
  std::optional<flash::Ppa> Locate(Lba lba) const;

  /// Simulates power loss + reboot: volatile state (mapping, queues,
  /// in-flight completions) is dropped and rebuilt by scanning page OOB
  /// areas. Uncommitted atomic groups are discarded. Note: TRIMs are not
  /// persisted, so trimmed-but-not-erased data reappears (a real
  /// behaviour of early TRIM implementations; documented in DESIGN.md).
  Status PowerCycle();

  /// Free blocks currently available on a LUN (tests/benches).
  std::size_t FreeBlocks(std::uint32_t lun) const {
    return luns_[lun].free_blocks.size();
  }

  ssd::Controller* controller() { return controller_; }

 private:
  struct PendingWrite {
    Lba lba = 0;
    std::uint64_t token = 0;
    SequenceNumber seq = 0;
    std::uint64_t group = 0;  // atomic group id, 0 = none
    bool is_relocate = false;
    bool is_commit_marker = false;
    // For relocations: the copy is only adopted if the mapping still
    // points at (expected_old, expected seq == seq).
    flash::Ppa expected_old;
    std::uint64_t epoch = 0;
    WriteCallback cb;  // may be null for relocations
    trace::Ctx ctx;
    SimTime enq_t = 0;  // when the write entered the FTL queue
  };

  struct LunState {
    sim::Ring<PendingWrite> host_queue;
    sim::Ring<PendingWrite> gc_queue;  // relocations, serviced first
    // Host and GC streams append into *separate* active blocks: GC's
    // relocation budget is then bounded by its own block and can never
    // be eaten by interleaved host writes (deadlock-free by
    // construction; also the classic hot/cold separation).
    bool has_active = false;
    flash::BlockAddr active;
    std::uint32_t next_page = 0;
    bool has_gc_active = false;
    flash::BlockAddr gc_active;
    std::uint32_t gc_next_page = 0;
    std::vector<flash::BlockAddr> free_blocks;
    bool gc_running = false;
    /// Current collection is a static-WL migration: its relocation
    /// stream targets the most-worn free block, not the least.
    bool collecting_wl = false;
    /// GC erases since the last WL migration (WL pacing).
    std::uint32_t erases_since_wl = 0;
    bool stalled = false;  // host queue blocked on free space
    /// Blocks past the correctable-read threshold, awaiting refresh
    /// (relocate-and-erase before the errors go uncorrectable).
    std::deque<flash::BlockAddr> refresh_queue;
    /// Trace identity of the collection in progress (gc_running): all
    /// its relocations and the final erase carry gc_ctx, so the victim
    /// ops show up GC-tagged on the flash tracks; the whole collection
    /// is recorded as one kGc span [gc_start, erase done).
    trace::Ctx gc_ctx;
    SimTime gc_start = 0;
    /// The collection's victim and its relocations still in flight: the
    /// last one to land (or to fail its read) starts the victim erase.
    flash::BlockAddr gc_victim;
    std::size_t relocs_in_flight = 0;
  };

  /// A host read in flight, pooled; a retry reissues the same record.
  struct ReadOp {
    Lba lba = 0;
    int tries = 0;
    flash::Ppa ppa;
    SequenceNumber expected_seq = 0;
    trace::Ctx ctx;
    ReadCallback cb;
  };

  /// A page program in flight, pooled.
  struct ProgramOp {
    std::uint32_t lun = 0;
    std::uint64_t flat = 0;
    flash::Ppa ppa;
    PendingWrite w;
  };

  struct AtomicGroup {
    std::vector<std::pair<Lba, SequenceNumber>> pages;  // lba -> seq
    std::vector<flash::Ppa> ppas;                       // filled on program
    std::size_t programmed = 0;
    bool failed = false;
    WriteCallback cb;
  };

  /// A committed atomic group whose pages are still on flash. The commit
  /// marker page must outlive every tagged page (recovery drops group
  /// pages without a marker), so the marker stays valid — and gets
  /// relocated by GC like data — until `count` reaches zero.
  struct LiveGroup {
    std::uint32_t count = 0;
    flash::Ppa marker;
  };

  // Write pipeline.
  void EnqueueWrite(PendingWrite w);
  bool LunWedged(std::uint32_t lun) const;
  void PumpLun(std::uint32_t lun);
  bool TakeFreeBlock(std::uint32_t lun, bool for_gc);
  void OnProgramComplete(ProgramOp* op, Status st);
  void OnProgramDone(std::uint32_t lun, PendingWrite w, flash::Ppa ppa,
                     Status st);
  void ApplyMapping(const PendingWrite& w, const flash::Ppa& ppa);
  /// MarkInvalid plus atomic-group live-count bookkeeping.
  void InvalidatePage(const flash::Ppa& ppa);

  // Reliability.
  /// Poisons the mapping of whatever LBA currently lives at `ppa` (OOB
  /// reverse lookup — the spare area is separately protected and
  /// survives a payload loss). No-op if the mapping moved on.
  void PoisonLostPage(const flash::Ppa& ppa);
  void PoisonMapping(Lba lba, const flash::Ppa& ppa, SequenceNumber seq);
  /// Controller refresh listener: queue `block` for relocate-and-erase.
  void OnRefreshRequest(const flash::BlockAddr& block);
  /// Pops eligible refresh requests; true if a collection was started.
  bool MaybeStartRefresh(std::uint32_t lun);

  // Read pipeline. Controller::PowerCycle (called by PowerCycle) drops
  // in-flight ops without calling back, so a completion always finds its
  // record live and PowerCycle may reclaim every record.
  void ReadAttempt(ReadOp* op);
  void OnReadDone(ReadOp* op, StatusOr<flash::PageData> res);
  void CompleteRead(ReadOp* op, StatusOr<std::uint64_t> result);

  /// Schedules an immediate completion that dies with the current epoch
  /// (so a power cut truly silences every pending callback).
  template <typename Cb, typename V>
  void PostGuarded(Cb cb, V value) {
    const std::uint64_t epoch = epoch_;
    controller_->sim()->Schedule(
        0, [this, epoch, cb = std::move(cb), value = std::move(value)]() {
          if (epoch != epoch_) return;
          cb(std::move(value));
        });
  }

  // Garbage collection / wear leveling.
  void MaybeStartGc(std::uint32_t lun);
  void MaybeStartStaticWl(std::uint32_t lun);
  void CollectBlock(std::uint32_t lun, flash::BlockAddr victim, bool is_wl);
  void RelocatePage(std::uint32_t lun, flash::Ppa ppa, bool is_wl);
  void OnRelocationRead(std::uint32_t lun, flash::Ppa ppa,
                        StatusOr<flash::PageData> res);
  /// One relocation of the LUN's collection is over (moved or lost).
  void OnRelocated(std::uint32_t lun);
  void FinishCollect(std::uint32_t lun, flash::BlockAddr victim, bool is_wl);
  /// The LUN's collectable blocks, in a scratch vector reused by every
  /// call (valid until the next call).
  const std::vector<BlockMeta>& GcCandidates(std::uint32_t lun) const;
  bool GcFeasible(std::uint32_t lun) const;

  // Atomic groups.
  void OnAtomicPageProgrammed(std::uint64_t group, Lba lba,
                              SequenceNumber seq, flash::Ppa ppa,
                              Status st);
  void CommitAtomicGroup(std::uint64_t group);

  // Block bookkeeping helpers.
  std::uint64_t FlatBlock(const flash::BlockAddr& a) const {
    return a.Flatten(geom());
  }
  const flash::Geometry& geom() const {
    return controller_->config().geometry;
  }
  std::uint32_t GlobalLun(const flash::BlockAddr& a) const {
    return a.GlobalLun(geom());
  }

  ssd::Controller* controller_;
  std::uint64_t logical_pages_;
  std::vector<MapEntry> map_;
  SequenceNumber next_seq_ = 1;
  std::uint64_t next_group_ = 1;
  std::uint64_t epoch_ = 0;  // bumped by PowerCycle to drop completions

  std::vector<LunState> luns_;
  // Per flat-block: programs in flight (blocks GC victim selection),
  // last write time (cost-benefit ages), free/active flags.
  std::vector<std::uint32_t> in_flight_;
  std::vector<SimTime> last_write_;
  std::vector<bool> is_free_;
  std::vector<bool> is_active_;

  std::map<std::uint64_t, AtomicGroup> atomic_groups_;   // in flight
  std::map<std::uint64_t, LiveGroup> atomic_live_;       // committed

  std::unique_ptr<WritePlacement> placement_;
  std::unique_ptr<GcPolicy> gc_policy_;
  WearLeveler wear_leveler_;
  Counters counters_;

  trace::Tracer* tracer_ = nullptr;          // == controller's tracer
  std::vector<std::uint32_t> ftl_tracks_;    // "ftl-lun-N" per LUN

  sim::RecordPool<ReadOp> read_ops_;
  sim::RecordPool<ProgramOp> program_ops_;
  // Scratch reused by GC victim scans, free-block picks and collections.
  mutable std::vector<BlockMeta> gc_candidates_;
  std::vector<std::uint32_t> free_wear_;
  std::vector<flash::Ppa> live_pages_;
};

}  // namespace postblock::ftl

#endif  // POSTBLOCK_FTL_PAGE_FTL_H_
