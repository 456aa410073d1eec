#ifndef POSTBLOCK_COMMON_TYPES_H_
#define POSTBLOCK_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace postblock {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::uint64_t;

/// Logical block address as exposed by a block device (one logical block
/// == one flash page in this framework; see DESIGN.md §4).
using Lba = std::uint64_t;

/// Sentinel for "no LBA" (e.g. a flash page holding FTL metadata or GC'd
/// garbage rather than host data).
inline constexpr Lba kInvalidLba = std::numeric_limits<Lba>::max();

/// Monotonic per-write sequence number used to stamp page versions; lets
/// tests and recovery identify the newest copy of an LBA.
using SequenceNumber = std::uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * 1000;
inline constexpr SimTime kSecond = 1000ull * 1000 * 1000;

/// Byte-size literals.
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

}  // namespace postblock

#endif  // POSTBLOCK_COMMON_TYPES_H_
