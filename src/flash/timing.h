#ifndef POSTBLOCK_FLASH_TIMING_H_
#define POSTBLOCK_FLASH_TIMING_H_

#include <cstdint>

#include "common/types.h"

namespace postblock::flash {

/// Flash operation timing. Values are circa-2012 datasheet figures, the
/// era the paper reasons about. The split between *chip* time (array
/// read/program/erase) and *channel* time (command + data transfer) is
/// what produces the paper's channel-bound vs chip-bound distinction
/// (Figure 1): a read holds the channel for its data transfer after the
/// array read; a program holds the channel before the array program.
struct Timing {
  SimTime read_ns = 40 * kMicrosecond;     // array read to page register
  SimTime program_ns = 400 * kMicrosecond; // page register to array
  SimTime erase_ns = 2 * kMillisecond;     // whole-block erase
  // The bus and energy figures below are the same for every flash
  // class (the presets vary only the array times above).
  static constexpr SimTime cmd_ns = 200;  // command/address cycles on bus
  /// Channel bus bandwidth for data transfers (ONFI-2 class).
  static constexpr std::uint64_t channel_mb_per_s = 200;

  /// Per-operation energy in nanojoules (the accounting of the authors'
  /// own uFLIP energy study, the paper's ref [2]). Benches report
  /// energy-per-host-write so GC/merge overheads show up as nJ, not
  /// just latency.
  // ~10 uJ array read, ~50 uJ array program, ~150 uJ block erase, and
  // the bus transfer energy per KiB.
  static constexpr std::uint64_t read_energy_nj = 10'000;
  static constexpr std::uint64_t program_energy_nj = 50'000;
  static constexpr std::uint64_t erase_energy_nj = 150'000;
  static constexpr std::uint64_t transfer_nj_per_kib = 500;

  /// Bus occupancy to move one page of `page_bytes`.
  /// bytes / (MB/s) = bytes * 1000 / mb_per_s nanoseconds (MB = 10^6 B).
  SimTime TransferNs(std::uint64_t page_bytes) const {
    return cmd_ns + page_bytes * 1000 / channel_mb_per_s;
  }

  /// SLC-class chip (fast, high endurance).
  static Timing Slc() {
    Timing t;
    t.read_ns = 25 * kMicrosecond;
    t.program_ns = 200 * kMicrosecond;
    t.erase_ns = 1500 * kMicrosecond;
    return t;
  }
  /// MLC-class chip (the 2012 mainstream; library default).
  static Timing Mlc() { return Timing{}; }
  /// TLC-class chip (slow, low endurance — the paper's density trend).
  static Timing Tlc() {
    Timing t;
    t.read_ns = 75 * kMicrosecond;
    t.program_ns = 900 * kMicrosecond;
    t.erase_ns = 3 * kMillisecond;
    return t;
  }
};

}  // namespace postblock::flash

#endif  // POSTBLOCK_FLASH_TIMING_H_
