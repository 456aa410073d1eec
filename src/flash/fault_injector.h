#ifndef POSTBLOCK_FLASH_FAULT_INJECTOR_H_
#define POSTBLOCK_FLASH_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "flash/address.h"
#include "flash/error_model.h"
#include "flash/geometry.h"

namespace postblock::flash {

/// Scripted fault schedules layered over the stochastic ErrorModel.
///
/// The stochastic model answers "how often do errors happen"; this
/// answers "what happens when *this* read fails" — the reproducible
/// half of reliability testing. Scripts are consumed deterministically:
/// no Rng is involved, and a FlashArray with an attached-but-empty
/// injector consumes exactly the same Rng draws as one with none, so
/// clean runs stay schedule-identical (the
/// neutrality.silent_injector.neutral gate relies on this).
///
/// Read faults count *attempts*: the controller's retry ladder re-reads
/// the same PPA, and each attempt advances the per-PPA sequence number.
/// `FailRead(ppa, {1, 2})` therefore fails the first two attempts and
/// lets the third succeed — the canonical retry-ladder script.
class FaultInjector {
 public:
  explicit FaultInjector(const Geometry& geometry);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Scripting ----------------------------------------------------
  /// Fails the nth subsequent read attempt of `ppa` (1-based, counted
  /// from the moment the first fault for this PPA is scripted).
  void FailRead(const Ppa& ppa, std::uint32_t nth,
                ReadOutcome outcome = ReadOutcome::kUncorrectable);
  /// Convenience: fails attempts `nths` of `ppa`.
  void FailRead(const Ppa& ppa, std::initializer_list<std::uint32_t> nths,
                ReadOutcome outcome = ReadOutcome::kUncorrectable);
  /// Every read attempt of `ppa` fails with `outcome` until
  /// ClearReadFaults — models a page whose cells are simply gone.
  void FailReadAlways(const Ppa& ppa,
                      ReadOutcome outcome = ReadOutcome::kUncorrectable);
  void ClearReadFaults(const Ppa& ppa);

  /// Fails the nth subsequent erase of block `addr` (1-based), which
  /// retires the block exactly like a stochastic post-endurance death.
  void FailErase(const BlockAddr& addr, std::uint32_t nth = 1);

  /// The next `ops` array operations on global LUN `lun` each take an
  /// extra `extra_ns` of array time (stuck-busy die).
  void StuckBusy(std::uint32_t global_lun, SimTime extra_ns,
                 std::uint32_t ops = 1);

  // --- Hooks (FlashArray / ssd::Controller) -------------------------
  /// Consult-and-consume. True = a scripted fault fires for this read
  /// attempt; `*outcome` is set. False = fall through to the
  /// stochastic model.
  bool OnRead(const Ppa& ppa, ReadOutcome* outcome);
  /// True = this erase fails, retiring the block.
  bool OnErase(const BlockAddr& addr);
  /// Extra array time for the next operation on `global_lun` (0 if no
  /// stuck-busy script is active). Consumes one scripted op.
  SimTime StuckBusyPenalty(std::uint32_t global_lun);

  /// Counters: read_faults_fired, erase_faults_fired, busy_penalties.
  const Counters& counters() const { return counters_; }

 private:
  struct ReadScript {
    std::uint32_t seen = 0;  // attempts observed since scripting began
    bool sticky = false;
    ReadOutcome sticky_outcome = ReadOutcome::kUncorrectable;
    std::map<std::uint32_t, ReadOutcome> nth;  // 1-based attempt -> fault
  };
  struct EraseScript {
    std::uint32_t seen = 0;
    std::map<std::uint32_t, bool> nth;
  };
  struct BusyScript {
    SimTime extra_ns = 0;
    std::uint32_t ops = 0;
  };

  Geometry geometry_;
  std::unordered_map<std::uint64_t, ReadScript> read_scripts_;   // flat PPA
  std::unordered_map<std::uint64_t, EraseScript> erase_scripts_; // flat block
  std::vector<BusyScript> busy_;  // indexed by global LUN
  Counters counters_;
};

}  // namespace postblock::flash

#endif  // POSTBLOCK_FLASH_FAULT_INJECTOR_H_
