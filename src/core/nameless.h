#ifndef POSTBLOCK_CORE_NAMELESS_H_
#define POSTBLOCK_CORE_NAMELESS_H_

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "host/command.h"
#include "sim/inplace_callback.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace postblock::core {

/// Nameless writes (the paper calls them "interesting" for space
/// allocation once extent-based allocation dies): the host writes data
/// *without naming an address*; the device picks the location and
/// returns its name. The host stores names instead of keeping its own
/// allocation map, and — because device and host are now communicating
/// peers — the device *calls back* when GC or wear leveling moves a
/// page, so the host can update its name.
///
/// This is a pure host-side client of the host API: every operation is
/// a blocklayer::IoRequest through HostInterface::Submit, so the same
/// store runs over a vision-append device (where a name *is* the
/// physical address) and over any layer stack in between, since the
/// layers pass the nameless vocabulary through. A stack whose device
/// issues no names (every other FTL) says so through Supports.
class NamelessStore {
 public:
  /// An opaque device-issued name.
  using Name = std::uint64_t;

  /// Fired when the device relocates a named page: (old name, new name).
  using MigrationHandler = std::function<void(Name, Name)>;

  using WriteCb = sim::InplaceFunction<void(StatusOr<Name>)>;
  using ReadCb = sim::InplaceFunction<void(StatusOr<std::uint64_t>)>;
  using StatusCb = sim::InplaceFunction<void(Status)>;

  /// `dev` is any stack speaking the typed API. The store probes
  /// capabilities once (Caps().nameless) instead of reading device
  /// configs; on a stack without nameless support every operation
  /// completes with the stack's typed Unimplemented.
  NamelessStore(sim::Simulator* sim, host::HostInterface* dev);

  NamelessStore(const NamelessStore&) = delete;
  NamelessStore& operator=(const NamelessStore&) = delete;

  /// Writes one page anywhere; the callback delivers its name. `ctx`
  /// threads the caller's trace identity into the command.
  void Write(std::uint64_t token, WriteCb cb, trace::Ctx ctx = {});

  /// Reads a page by name.
  void Read(Name name, ReadCb cb, trace::Ctx ctx = {});

  /// Releases a named page (the trim analogue).
  void Free(Name name, StatusCb cb, trace::Ctx ctx = {});

  void SetMigrationHandler(MigrationHandler handler) {
    handler_ = std::move(handler);
  }

  /// Did the capability probe find a device that speaks nameless?
  bool device_supported() const { return supported_; }

  /// Pages currently named.
  std::size_t live() const { return names_.size(); }
  const Counters& counters() const { return counters_; }

 private:
  void OnMigration(Name old_name, Name new_name);

  sim::Simulator* sim_;
  host::HostInterface* dev_;
  bool supported_ = false;
  /// The host's view: the set of names it holds. (What the names *mean*
  /// physically is the device's concern.)
  std::unordered_set<Name> names_;
  MigrationHandler handler_;
  Counters counters_;
};

}  // namespace postblock::core

#endif  // POSTBLOCK_CORE_NAMELESS_H_
