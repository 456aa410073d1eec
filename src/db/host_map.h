#ifndef POSTBLOCK_DB_HOST_MAP_H_
#define POSTBLOCK_DB_HOST_MAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/stats.h"
#include "db/page.h"
#include "host/command.h"
#include "sim/inplace_callback.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace postblock::db {

/// The host side of the Section 3 crossover: a page-id-addressed
/// BlockDevice whose *only* downstream vocabulary is the nameless
/// command set. The host owns the logical-to-physical map — page id to
/// device-issued name — so the device below keeps no L2P at all, and
/// the map is sized by *live* pages, not by the logical address space
/// (the DRAM-footprint argument: the host already tracks these pages in
/// its own metadata; the device's copy of the map was pure redundancy).
///
/// Semantics seen by the buffer pool (identical to an SSD data path):
///   read  — unmapped page ids read as token 0 (zero page); a read that
///           races a device migration retries under the updated name.
///   write — a tagged nameless write (owner = page id, epoch = current
///           checkpoint epoch). The *old* copy is not freed inline: it
///           goes to the retired list and dies only at FreeRetired(),
///           which the storage manager calls after the checkpoint's
///           commit point — crash before that leaves both copies on
///           flash and recovery picks by epoch (see DESIGN.md §4j).
///   trim  — drops the mapping; the name is retired, not freed inline
///           (same crash-ordering argument).
///   flush — forwarded (the append device completes it as a barrier).
///
/// Crash story: the map is host DRAM — Crash() wipes it; Recover in the
/// storage manager rebuilds it from the device's LiveNames() scan
/// (names + OOB owner stamps) and re-Adopt()s the surviving copies.
class HostMap : public blocklayer::BlockDevice {
 public:
  using StatusCb = sim::InplaceFunction<void(Status)>;

  /// `dev` is the typed stack underneath (it must speak nameless — the
  /// storage manager probes Supports() before wiring this in).
  /// `num_pages` is the advertised logical capacity, `page_bytes` the
  /// page size.
  HostMap(sim::Simulator* sim, host::HostInterface* dev,
          std::uint64_t num_pages, std::uint32_t page_bytes);

  HostMap(const HostMap&) = delete;
  HostMap& operator=(const HostMap&) = delete;

  // --- BlockDevice ---------------------------------------------------
  std::uint64_t num_blocks() const override { return num_pages_; }
  std::uint32_t block_bytes() const override { return page_bytes_; }
  void Submit(blocklayer::IoRequest request) override;
  const Counters& counters() const { return counters_; }

  // --- Checkpoint protocol (storage manager) -------------------------
  /// Epoch stamped into subsequent writes' OOB (the checkpoint being
  /// built). Bump before flushing a checkpoint's pages.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  std::uint64_t epoch() const { return epoch_; }

  /// Frees every retired name (overwritten/trimmed old copies). Call
  /// only after the checkpoint's commit point (meta page durable):
  /// until then the old copies are the recovery image. NotFound on an
  /// individual free is tolerated (the device migrated-and-told-us or a
  /// crash already reclaimed it).
  void FreeRetired(StatusCb cb);
  std::size_t retired() const { return retired_.size(); }

  // --- Recovery (storage manager) ------------------------------------
  /// Power loss: the map is volatile host state.
  void Crash();
  /// Re-adopts a surviving copy found by the post-crash LiveNames scan.
  void Adopt(PageId page, std::uint64_t name);

  // --- Introspection -------------------------------------------------
  /// Host DRAM the mapping occupies: 16 B per *live* page (id + name) —
  /// the number the crossover study reports against the device-side
  /// page map's 8 B per *logical* page.
  std::uint64_t MappingBytes() const { return map_.size() * 16; }
  std::size_t live() const { return map_.size(); }
  /// Current name of a page id, or false (tests).
  bool Lookup(PageId page, std::uint64_t* name) const;

 private:
  /// One request's pages in flight (or one FreeRetired batch): each
  /// page's command completes through {this, tracker*, index}, and the
  /// last one delivers `result`. Pooled; `result.tokens` and `names`
  /// keep their capacity.
  struct Tracker {
    std::uint32_t remaining = 0;
    Status first_error;
    blocklayer::IoResult result;
    blocklayer::IoCallback cb;
    std::vector<std::uint64_t> names;  // FreeRetired: the names freed
    StatusCb free_cb;                  // FreeRetired's callback
  };

  Tracker* NewTracker(std::uint32_t pages, blocklayer::IoCallback cb);
  void OnPage(Tracker* t, std::uint32_t index, Status st,
              std::uint64_t token);
  void OnFreed(Tracker* t, const blocklayer::IoResult& res);
  void ReadPage(PageId page, int tries, Tracker* t, std::uint32_t index);
  void WritePage(PageId page, std::uint64_t token, Tracker* t,
                 std::uint32_t index);
  /// Points `name` at `page` in name_to_page_, reusing the node that
  /// mapped `old_name` (if any) instead of freeing and making one.
  void Rename(std::uint64_t old_name, std::uint64_t name, PageId page);
  void OnMigration(std::uint64_t old_name, std::uint64_t new_name);

  sim::Simulator* sim_;
  host::HostInterface* dev_;
  std::uint64_t num_pages_;
  std::uint32_t page_bytes_;

  std::uint64_t epoch_ = 0;

  /// The host-owned L2P, both directions (migration callbacks arrive
  /// name-first).
  std::unordered_map<PageId, std::uint64_t> map_;
  std::unordered_map<std::uint64_t, PageId> name_to_page_;
  /// Old copies awaiting the post-commit free.
  std::vector<std::uint64_t> retired_;

  sim::RecordPool<Tracker> trackers_;
  Counters counters_;
};

}  // namespace postblock::db

#endif  // POSTBLOCK_DB_HOST_MAP_H_
