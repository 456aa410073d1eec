#ifndef POSTBLOCK_BLOCKLAYER_REQUEST_H_
#define POSTBLOCK_BLOCKLAYER_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/tokens.h"
#include "common/types.h"
#include "sim/inplace_callback.h"
#include "trace/trace.h"

namespace postblock::blocklayer {

/// Every way a host talks to storage in this repo, in one op set. The
/// first four are the legacy block interface (kTrim is already a crack
/// in its "pure memory abstraction" — the paper's Section 3 point 2);
/// the rest are the paper's Section 4 "new interfaces", which a block
/// device cannot express. That is why capability discovery
/// (host::HostInterface::Supports) is part of the API: a host must be
/// able to ask which part of this set the stack underneath speaks. The
/// values index per-op counter tables.
enum class IoOp : std::uint8_t {
  kRead = 0,
  kWrite,
  kTrim,
  kFlush,  // drain volatile write cache
  /// Multi-extent atomic write group (Ouyang et al. [17]): all extents
  /// become durable together or none survive recovery.
  kAtomicGroup,
  /// Nameless write (de Jonge / Arpaci-Dusseau): the host supplies data
  /// without naming an address; the device picks the location and
  /// returns its name in IoResult::tokens[0].
  kNamelessWrite,
  /// Advisory access hint; never fails, may be ignored.
  kHint,
  /// Read a page by its device-issued name (IoRequest::lba carries the
  /// name). NotFound if the name is stale — e.g. the device migrated
  /// the page and already told the host via the migration handler; the
  /// host re-reads under its updated name.
  kNamelessRead,
  /// Release a named page (IoRequest::lba carries the name) — the trim
  /// of the nameless vocabulary. The device never garbage-collects a
  /// host-managed page on its own; this op is how space dies.
  kNamelessFree,
};

constexpr std::size_t kNumIoOps = 9;

/// True for the four ops the legacy block interface can express.
inline bool IsBlockOp(IoOp op) { return op <= IoOp::kFlush; }

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

/// Completion payload. For reads, `tokens` carries one payload token per
/// logical block (postblock models page contents as 64-bit stamps; see
/// flash::PageData).
struct IoResult {
  Status status;
  Tokens tokens;
};

/// Completion callable for one IO: the shared sim::InplaceFunction
/// (inline captures, slab fallback, const-callable, may fire more than
/// once — the merge scheduler fans one completion out to every request
/// it absorbed).
using IoCallback = sim::InplaceFunction<void(const IoResult&)>;

/// Bounded EIO retry for reads in BlockLayer and DirectDriver,
/// mirroring the kernel's per-bio retry count: a read completing with
/// DataLoss (uncorrectable media even after the device's own retry
/// ladder) is resubmitted up to kEioMaxAttempts total tries, each
/// preceded by an exponentially grown backoff (kEioBackoffNs << attempt).
/// Writes and trims are never retried here — the FTL already places
/// them on fresh blocks, so a failed write is a policy decision for the
/// layer above.
inline constexpr std::uint32_t kEioMaxAttempts = 3;  // total tries
inline constexpr SimTime kEioBackoffNs = 2000;

/// One asynchronous host request. Move-only (the completion callable
/// owns inline state); accidental copies on the submit path are compile
/// errors. Field use by op:
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
/// `priority` and `stream` classify the request for scheduling on every
/// path; `on_complete` always fires exactly once.
struct IoRequest {
  IoOp op = IoOp::kRead;
  Lba lba = 0;
  std::uint32_t nblocks = 1;
  /// Payload tokens for writes; size must equal nblocks.
  Tokens tokens;
  /// Scheduling priority (higher dispatches first under the priority
  /// scheduler) — the database-IO-priority idea of the paper's ref
  /// [13] (Hall & Bonnet): commit-critical log writes must not queue
  /// behind lazy page flushes.
  std::uint8_t priority = 0;
  /// Submission stream/context id. 0 = unclassified. The multi-queue
  /// block layer can pin a stream to its own software queue
  /// (BlockLayerConfig::stream_queues), and the merge scheduler never
  /// coalesces requests from different streams — interleaved streams
  /// that happen to abut in LBA space are distinct IOs, not one.
  std::uint8_t stream = 0;
  /// kHint payload.
  HintKind hint = HintKind::kSequential;
  IoCallback on_complete;
  /// Trace identity. 0 = untraced; the topmost layer that sees 0 with an
  /// enabled tracer mints the root span, lower layers inherit it, so a
  /// stacked IO is one span across the whole path.
  trace::SpanId span = 0;
  /// When the request entered a software queue (set by the layer that
  /// enqueues it; measures scheduler queueing delay).
  SimTime enqueued_at = 0;
  /// kAtomicGroup extents. Empty (and unallocated) for every other op.
  std::vector<std::pair<Lba, std::uint64_t>> group;

  // ---- factories ---------------------------------------------------
  static IoRequest Read(Lba lba, std::uint32_t nblocks, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lba = lba;
    r.nblocks = nblocks;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest Write(Lba lba, Tokens tokens, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lba = lba;
    r.nblocks = static_cast<std::uint32_t>(tokens.size());
    r.tokens = std::move(tokens);
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest Trim(Lba lba, std::uint32_t nblocks, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kTrim;
    r.lba = lba;
    r.nblocks = nblocks;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest Flush(IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kFlush;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest AtomicGroup(
      std::vector<std::pair<Lba, std::uint64_t>> extents, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kAtomicGroup;
    r.group = std::move(extents);
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest NamelessWrite(std::uint64_t token, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kNamelessWrite;
    r.tokens = {token};
    r.nblocks = 0;  // unstamped (no OOB owner tag)
    r.on_complete = std::move(cb);
    return r;
  }
  /// Nameless write with an OOB owner stamp: the device persists
  /// (owner, epoch) in the page's spare area, so a post-crash
  /// control-path scan can hand the host back (name, owner, epoch)
  /// tuples — the host rebuilds its own mapping without the device ever
  /// keeping one (Zhang et al.'s de-indirection back-pointers).
  static IoRequest NamelessWriteTagged(std::uint64_t token,
                                       std::uint64_t owner,
                                       std::uint32_t epoch, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kNamelessWrite;
    r.tokens = {token};
    r.lba = owner;
    r.nblocks = epoch;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest NamelessRead(std::uint64_t name, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kNamelessRead;
    r.lba = name;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest NamelessFree(std::uint64_t name, IoCallback cb) {
    IoRequest r;
    r.op = IoOp::kNamelessFree;
    r.lba = name;
    r.on_complete = std::move(cb);
    return r;
  }
  static IoRequest Hint(HintKind hint, IoCallback cb = {}) {
    IoRequest r;
    r.op = IoOp::kHint;
    r.hint = hint;
    r.on_complete = std::move(cb);
    return r;
  }
};

/// True when the extent [lba, lba + nblocks) lies inside [0, limit).
/// Never forms `lba + nblocks`: that sum wraps for an LBA near 2^64, and
/// a wrapped extent would pass a `lba + nblocks > limit` test.
constexpr bool ExtentInRange(Lba lba, std::uint64_t nblocks,
                             std::uint64_t limit) {
  return nblocks <= limit && lba <= limit - nblocks;
}

/// Maps a block-layer op onto its trace origin class.
inline trace::Origin OriginOf(IoOp op) {
  switch (op) {
    case IoOp::kRead:
      return trace::Origin::kHostRead;
    case IoOp::kWrite:
      return trace::Origin::kHostWrite;
    case IoOp::kTrim:
      return trace::Origin::kHostTrim;
    case IoOp::kFlush:
      return trace::Origin::kHostFlush;
    case IoOp::kAtomicGroup:
    case IoOp::kNamelessWrite:
      return trace::Origin::kHostWrite;
    case IoOp::kNamelessRead:
      return trace::Origin::kHostRead;
    case IoOp::kNamelessFree:
      return trace::Origin::kHostTrim;
    case IoOp::kHint:
      break;
  }
  return trace::Origin::kMeta;
}

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_REQUEST_H_
