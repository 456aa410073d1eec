#ifndef POSTBLOCK_TRACE_TRACER_H_
#define POSTBLOCK_TRACE_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/latency_breakdown.h"
#include "trace/trace.h"

namespace postblock::trace {

/// One recorded stage interval in sim time. 48 bytes, stored by value
/// in the ring — recording is a couple of stores, never an allocation.
struct TraceEvent {
  SimTime start = 0;
  SimTime end = 0;
  SpanId span = 0;
  SpanId parent = 0;
  std::uint64_t arg = 0;  // stage-specific detail (LBA, PPA, bytes...)
  std::uint32_t track = 0;
  Stage stage = Stage::kIo;
  Origin origin = Origin::kMeta;

  std::uint64_t dur() const { return end - start; }
};

/// The cross-layer tracing core: a fixed-capacity ring of TraceEvents
/// plus the running LatencyBreakdown. One Tracer is shared by every
/// layer of a simulated stack; layers hold a raw pointer and call the
/// inline Record() which is a no-op branch when disabled. Construction
/// allocates nothing: the ring and the breakdown's histograms are
/// allocated once, at the first set_enabled(true), so a tracer that is
/// attached but never enabled costs no memory for them. The track
/// registry grows on the cold path. Record() never allocates, so the
/// simulator hot path stays zero-alloc with tracing on or off.
///
/// Ring overflow keeps the newest events (oldest are overwritten) and
/// counts the drops; the LatencyBreakdown always sees every event, so
/// aggregate attribution is exact even when the timeline is truncated.
class Tracer {
 public:
  /// `capacity` is rounded up to a power of two (min 16). The ring of
  /// that many events is allocated at the first set_enabled(true).
  explicit Tracer(std::size_t capacity = 1 << 16);

  /// Master switch. Off: NewSpan() returns 0 and Record() is a single
  /// predictable branch. On: spans are minted and events recorded. The
  /// first switch-on allocates the ring; later ones reuse it.
  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  SpanId NewSpan() { return enabled_ ? ++last_span_ : 0; }

  /// Registers (or looks up) a named timeline. Tracks group events for
  /// the exporter: pid = layer (kPidHost/...), tid assigned per pid in
  /// registration order. Cold path — instrument constructors call it.
  std::uint32_t RegisterTrack(std::uint32_t pid, const std::string& name);

  /// Records one stage interval. Call only after checking enabled()
  /// (it re-checks, so a miss is safe — just wasted argument setup).
  void Record(Stage stage, Origin origin, SpanId span, SpanId parent,
              std::uint32_t track, SimTime start, SimTime end,
              std::uint64_t arg = 0) {
    if (!enabled_) return;
    breakdown_.Add(stage, origin, end - start);
    TraceEvent& e = ring_[next_++ & mask_];
    e.start = start;
    e.end = end;
    e.span = span;
    e.parent = parent;
    e.arg = arg;
    e.track = track;
    e.stage = stage;
    e.origin = origin;
  }

  /// Zero-duration marker (merge decisions, victim picks, retirements).
  void Mark(Stage stage, Origin origin, SpanId span, std::uint32_t track,
            SimTime at, std::uint64_t arg = 0) {
    Record(stage, origin, span, 0, track, at, at, arg);
  }

  std::size_t capacity() const { return mask_ + 1; }
  std::uint64_t total_recorded() const { return next_; }
  std::uint64_t dropped() const {
    return next_ > capacity() ? next_ - capacity() : 0;
  }
  std::size_t size() const {
    return next_ < capacity() ? static_cast<std::size_t>(next_)
                              : capacity();
  }

  /// Visits retained events oldest-first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const std::uint64_t begin = dropped();
    for (std::uint64_t i = begin; i < next_; ++i) {
      fn(ring_[i & mask_]);
    }
  }

  struct TrackInfo {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::string name;
  };
  const std::vector<TrackInfo>& tracks() const { return tracks_; }

  const LatencyBreakdown& breakdown() const { return breakdown_; }

 private:
  bool enabled_ = false;
  std::uint64_t last_span_ = 0;
  std::uint64_t next_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<TraceEvent> ring_;
  std::vector<TrackInfo> tracks_;
  LatencyBreakdown breakdown_;
};

}  // namespace postblock::trace

#endif  // POSTBLOCK_TRACE_TRACER_H_
