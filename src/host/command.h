#ifndef POSTBLOCK_HOST_COMMAND_H_
#define POSTBLOCK_HOST_COMMAND_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "blocklayer/request.h"
#include "common/status.h"
#include "common/tokens.h"
#include "common/types.h"
#include "trace/trace.h"

namespace postblock::host {

/// The unified typed host command set — one tagged union over every way
/// a host talks to storage in this repo, replacing the three divergent
/// submit entry points (BlockLayer::Submit, DirectDriver::Submit,
/// HybridStore::SubmitAsync) with a single `Execute(Command)` on a
/// common `HostInterface`.
///
/// The first four kinds are the legacy block interface; the rest are
/// the paper's Section 4 "new interfaces" — commands a block device
/// cannot express, which is exactly why capability discovery
/// (`HostInterface::Supports`) is part of the API: a host must be able
/// to ask what the device underneath actually speaks.
enum class CommandKind : std::uint8_t {
  kRead = 0,
  kWrite,
  kTrim,
  kFlush,
  /// Multi-extent atomic write group (Ouyang et al. [17]): all extents
  /// become durable together or none survive recovery.
  kAtomicGroup,
  /// Nameless write (de Jonge / Arpaci-Dusseau): the host supplies data
  /// without naming an address; the device picks the location and
  /// returns its name in IoResult::tokens[0].
  kNamelessWrite,
  /// Advisory access hint; never fails, may be ignored.
  kHint,
  /// Read a page by its device-issued name (Command::lba carries the
  /// name). NotFound if the name is stale — e.g. the device migrated
  /// the page and already told the host via the migration handler; the
  /// host re-reads under its updated name.
  kNamelessRead,
  /// Release a named page (Command::lba carries the name) — the trim of
  /// the nameless vocabulary. The device never garbage-collects a
  /// host-managed page on its own; this command is how space dies.
  kNamelessFree,
};

constexpr std::size_t kNumCommandKinds = 9;

inline const char* CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kRead:
      return "read";
    case CommandKind::kWrite:
      return "write";
    case CommandKind::kTrim:
      return "trim";
    case CommandKind::kFlush:
      return "flush";
    case CommandKind::kAtomicGroup:
      return "atomic-group";
    case CommandKind::kNamelessWrite:
      return "nameless-write";
    case CommandKind::kHint:
      return "hint";
    case CommandKind::kNamelessRead:
      return "nameless-read";
    case CommandKind::kNamelessFree:
      return "nameless-free";
  }
  return "?";
}

/// Advisory hints (kHint). Modeled on posix_fadvise plus the
/// stream-separation idea the multi-queue path uses.
enum class HintKind : std::uint8_t {
  kSequential = 0,  // upcoming access is sequential
  kRandom,          // upcoming access is random
  kWillNeed,        // data will be read soon
  kDontNeed,        // data will not be reused
  kStreamOpen,      // `stream` begins a new write stream
  kStreamClose,     // `stream` ends
};

/// One typed host command. Field use by kind:
///   kRead            lba, nblocks
///   kWrite           lba, nblocks, tokens (one per block)
///   kTrim            lba, nblocks
///   kFlush           —
///   kAtomicGroup     group (extent = (lba, token))
///   kNamelessWrite   tokens[0] = payload; completion tokens[0] = name.
///                    Optional OOB stamp the device persists alongside
///                    the page (the de-indirection back-pointer): lba =
///                    owner tag, nblocks = owner epoch (0 = unstamped).
///   kHint            hint, optionally lba/nblocks/stream as its scope
///   kNamelessRead    lba = name; completion tokens[0] = payload
///   kNamelessFree    lba = name
/// `priority` and `stream` classify the command for scheduling on every
/// path; `on_complete` always fires exactly once.
struct Command {
  CommandKind kind = CommandKind::kRead;
  Lba lba = 0;
  std::uint32_t nblocks = 1;
  Tokens tokens;
  std::uint8_t priority = 0;
  std::uint8_t stream = 0;
  /// kAtomicGroup extents.
  std::vector<std::pair<Lba, std::uint64_t>> group;
  /// kHint payload.
  HintKind hint = HintKind::kSequential;
  blocklayer::IoCallback on_complete;
  trace::SpanId span = 0;

  // ---- factories ---------------------------------------------------
  static Command Read(Lba lba, std::uint32_t nblocks,
                      blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kRead;
    c.lba = lba;
    c.nblocks = nblocks;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command Write(Lba lba, Tokens tokens, blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kWrite;
    c.lba = lba;
    c.nblocks = static_cast<std::uint32_t>(tokens.size());
    c.tokens = std::move(tokens);
    c.on_complete = std::move(cb);
    return c;
  }
  static Command Trim(Lba lba, std::uint32_t nblocks,
                      blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kTrim;
    c.lba = lba;
    c.nblocks = nblocks;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command Flush(blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kFlush;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command AtomicGroup(
      std::vector<std::pair<Lba, std::uint64_t>> extents,
      blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kAtomicGroup;
    c.group = std::move(extents);
    c.on_complete = std::move(cb);
    return c;
  }
  static Command NamelessWrite(std::uint64_t token,
                               blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kNamelessWrite;
    c.tokens = {token};
    c.nblocks = 0;  // unstamped (no OOB owner tag)
    c.on_complete = std::move(cb);
    return c;
  }
  /// Nameless write with an OOB owner stamp: the device persists
  /// (owner, epoch) in the page's spare area, so a post-crash
  /// control-path scan can hand the host back (name, owner, epoch)
  /// tuples — the host rebuilds its own mapping without the device ever
  /// keeping one (Zhang et al.'s de-indirection back-pointers).
  static Command NamelessWriteTagged(std::uint64_t token,
                                     std::uint64_t owner,
                                     std::uint32_t epoch,
                                     blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kNamelessWrite;
    c.tokens = {token};
    c.lba = owner;
    c.nblocks = epoch;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command NamelessRead(std::uint64_t name,
                              blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kNamelessRead;
    c.lba = name;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command NamelessFree(std::uint64_t name,
                              blocklayer::IoCallback cb) {
    Command c;
    c.kind = CommandKind::kNamelessFree;
    c.lba = name;
    c.on_complete = std::move(cb);
    return c;
  }
  static Command Hint(HintKind hint, blocklayer::IoCallback cb = {}) {
    Command c;
    c.kind = CommandKind::kHint;
    c.hint = hint;
    c.on_complete = std::move(cb);
    return c;
  }
};

/// Capability-discovery answer (host::HostInterface::Caps): everything
/// a host needs to decide how to drive the stack, without reading the
/// device's construction-time config — the post-block analogue of an
/// NVMe Identify. Layers forward the call down and OR in what they add
/// themselves (e.g. HybridStore's PCM sync path).
struct DeviceCaps {
  /// Per-kind support, same bit layout as CapabilityMask().
  std::uint32_t command_mask = 0;
  /// Multi-extent atomic write groups execute natively.
  bool atomic_groups = false;
  /// Nameless write/read/free execute natively.
  bool nameless = false;
  /// Advisory hints are accepted (possibly ignored) rather than failed.
  bool hint_classes = false;
  /// Synchronous byte-granular persistence bypassing the block path
  /// (a PCM log behind SyncPersist) exists in this stack.
  bool pcm_sync = false;
  /// Physical-append mode: > 0 means the device runs host-managed
  /// regions (this many independent append points), keeps no L2P for
  /// them, and never garbage-collects host-managed pages on its own —
  /// the post-block device of the paper's Section 3.
  std::uint32_t append_regions = 0;
  /// Device-side mapping-table DRAM right now, in bytes. The crossover
  /// study's third axis: a full page-map FTL pays 8 B per logical page;
  /// an append-mode device pays per-block bookkeeping only.
  std::uint64_t mapping_table_bytes = 0;

  bool Supports(CommandKind kind) const {
    return (command_mask >> static_cast<int>(kind)) & 1u;
  }
};

/// Fired when the device relocates a host-managed page (refresh of a
/// decaying block, cooperative migration): (old name, new name). The
/// host updates its mapping; a read in flight under the old name
/// returns NotFound and is retried under the new one.
using MigrationHandler =
    std::function<void(std::uint64_t, std::uint64_t)>;

/// The unified host-facing interface: typed commands plus capability
/// discovery. Every stackable layer in the repo (the SSD device, the
/// block layer, the direct driver, the HDD, simple devices, and
/// core::HybridStore's async class) implements it, so a host program
/// is written once against `Execute`/`Supports` and wired over any
/// stack.
///
/// Contract: `Execute` must complete `cmd.on_complete` exactly once (in
/// simulated time for accepted commands; a command whose kind the layer
/// does not support completes inline with Unimplemented — callers that
/// care should check `Supports` first, which is the point of capability
/// discovery).
class HostInterface {
 public:
  virtual ~HostInterface() = default;

  /// Can this stack execute `kind`? Stacked layers forward the question
  /// to the layer below for kinds they merely pass through.
  virtual bool Supports(CommandKind kind) const {
    switch (kind) {
      case CommandKind::kRead:
      case CommandKind::kWrite:
      case CommandKind::kTrim:
      case CommandKind::kFlush:
        return true;
      default:
        return false;
    }
  }

  /// Executes one typed command.
  virtual void Execute(Command cmd) = 0;

  /// Capability discovery. The default derives everything derivable
  /// from Supports(); devices with richer truths (append regions,
  /// mapping DRAM) and layers that add capabilities of their own
  /// (HybridStore's PCM sync path) override or extend it. Hosts call
  /// this instead of reading device configs.
  virtual DeviceCaps Caps() const {
    DeviceCaps caps;
    caps.command_mask = CapabilityMask();
    caps.atomic_groups = caps.Supports(CommandKind::kAtomicGroup);
    caps.nameless = caps.Supports(CommandKind::kNamelessWrite) &&
                    caps.Supports(CommandKind::kNamelessRead) &&
                    caps.Supports(CommandKind::kNamelessFree);
    caps.hint_classes = caps.Supports(CommandKind::kHint);
    return caps;
  }

  /// Installs the host's migration handler for named pages. Stacked
  /// layers forward it to the device; the default drops it (a stack
  /// with no nameless support has nothing to migrate).
  virtual void SetMigrationHandler(MigrationHandler handler) {
    (void)handler;
  }

  /// Capability bitmask (bit = static_cast<int>(CommandKind)).
  std::uint32_t CapabilityMask() const {
    std::uint32_t mask = 0;
    for (std::size_t k = 0; k < kNumCommandKinds; ++k) {
      if (Supports(static_cast<CommandKind>(k))) mask |= 1u << k;
    }
    return mask;
  }
};

/// Lowers a basic (block-expressible) command to an IoRequest. Only
/// valid for kRead/kWrite/kTrim/kFlush.
inline blocklayer::IoRequest LowerToIoRequest(Command cmd) {
  blocklayer::IoRequest r;
  switch (cmd.kind) {
    case CommandKind::kRead:
      r.op = blocklayer::IoOp::kRead;
      break;
    case CommandKind::kWrite:
      r.op = blocklayer::IoOp::kWrite;
      break;
    case CommandKind::kTrim:
      r.op = blocklayer::IoOp::kTrim;
      break;
    case CommandKind::kFlush:
      r.op = blocklayer::IoOp::kFlush;
      break;
    default:
      r.op = blocklayer::IoOp::kRead;  // unreachable by contract
      break;
  }
  r.lba = cmd.lba;
  r.nblocks = cmd.nblocks;
  r.tokens = std::move(cmd.tokens);
  r.priority = cmd.priority;
  r.stream = cmd.stream;
  r.span = cmd.span;
  r.on_complete = std::move(cmd.on_complete);
  return r;
}

/// True for the four kinds the legacy block interface can express.
inline bool IsBlockExpressible(CommandKind kind) {
  switch (kind) {
    case CommandKind::kRead:
    case CommandKind::kWrite:
    case CommandKind::kTrim:
    case CommandKind::kFlush:
      return true;
    default:
      return false;
  }
}

}  // namespace postblock::host

#endif  // POSTBLOCK_HOST_COMMAND_H_
