#ifndef POSTBLOCK_SIM_EVENT_QUEUE_H_
#define POSTBLOCK_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/inplace_callback.h"

namespace postblock::sim {

/// A time-ordered queue of callbacks. Ties (equal timestamps) fire in
/// insertion order, which makes whole-simulation runs deterministic.
///
/// Implemented as a hierarchical timing wheel over a pooled node arena:
/// kLevels levels of kSlots slots each, 1 ns tick at level 0, each level
/// kSlots times coarser than the one below (slot widths 1 ns, 1.02 µs,
/// 1.05 ms, 1.07 s), so a flash-timed event (tens of µs to a few ms)
/// lands one or two levels up and cascades at most once or twice. Every
/// pending event is one node: its key (`when`, `seq`, `next`) in one
/// array and its callback in a parallel one, both recycled through a
/// free list, so the queue's storage grows O(log n) times over its life
/// and the steady state allocates nothing. A slot is an intrusive list
/// of node indices; a cascade relinks 4-byte indices and never touches
/// a callback. Events beyond the wheel horizon (kHorizon, ~1,100
/// simulated seconds ahead) wait in an overflow list and are fed back
/// into the wheel as time advances.
///
/// Contract: timestamps must not go backwards — Push(when) with `when`
/// earlier than the wheel position is clamped to it (the same clamp
/// Simulator applies against Now()). The wheel position advances to a
/// timestamp only when NextTime() commits to it or HasEventAtOrBefore()
/// clears a bound at or past it, so a deadline-bounded caller
/// (Simulator::RunUntil) can keep scheduling between its deadline and a
/// far-future pending event without hitting the clamp. The pop order is
/// exactly (when, push order), bit-identical to a binary heap keyed on
/// (when, seq); tests/event_queue_determinism_test.cc holds the two
/// implementations to that.
class EventQueue {
 public:
  using Callback = InplaceCallback;

  static constexpr int kSlotBits = 10;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 4;
  /// Width of one slot at `level`: 1 ns, 1,024 ns, 2^20 ns, 2^30 ns.
  static constexpr SimTime SlotWidth(int level) {
    return SimTime{1} << (kSlotBits * level);
  }
  /// Span of the coarsest level's block (2^40 ns, ~1,100 s). An event
  /// outside the wheel position's block of this span waits in the
  /// overflow list.
  static constexpr SimTime kHorizon = SimTime{1} << (kSlotBits * kLevels);

  /// Enqueues `f` at `when` (clamped to the wheel position, i.e. never
  /// earlier than the last popped timestamp).
  /// Templated so the callback is constructed directly inside its node —
  /// no intermediate InplaceCallback moves on the push path.
  template <typename F>
  void Push(SimTime when, F&& f) {
    if (when < cur_) when = cur_;  // same clamp Simulator applies vs Now()
    const Index i = NewNode();
    callbacks_[i].Emplace(std::forward<F>(f));
    keys_[i].when = when;
    keys_[i].seq = next_seq_++;
    Place(i);
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  /// Advances internal wheel cursors (cascading coarse slots down), so
  /// it is not const; the observable pop sequence is unaffected.
  /// Commits the wheel position to the returned timestamp: a subsequent
  /// Push below it clamps up to it. Callers that only want to know
  /// whether anything is due by a deadline must use HasEventAtOrBefore.
  SimTime NextTime() {
    if (front_ == kNil) Advance(~SimTime{0});
    return cur_;
  }

  /// True iff the earliest pending event's timestamp is <= `bound`
  /// (false on an empty queue). Unlike NextTime(), never advances the
  /// wheel position past `bound`, so after a false return every
  /// Push(when) with `when` >= `bound` keeps its exact timestamp even
  /// if it precedes all pending events — the peek Simulator::RunUntil
  /// needs so work scheduled after the deadline is not deferred to (and
  /// reordered after) a stale far-future event.
  bool HasEventAtOrBefore(SimTime bound) {
    if (front_ != kNil) return cur_ <= bound;
    return size_ != 0 && Advance(bound);
  }

  /// Removes and returns the earliest event's callback. Requires !empty().
  /// Pops the event the last NextTime() or successful
  /// HasEventAtOrBefore() found without searching again, so a caller
  /// that peeks and then pops (Simulator::Step) walks the wheel once
  /// per event.
  Callback Pop() {
    if (front_ == kNil) NextTime();
    const Index i = front_;
    const unsigned s = static_cast<unsigned>(cur_ & kSlotMask);
    List& slot = levels_[0].slots[s];
    front_ = keys_[i].next;  // the slot is seq-sorted: next is the front
    slot.head = front_;
    if (front_ == kNil) {
      slot.tail = kNil;
      levels_[0].Clear(s);
    }
    keys_[i].next = free_;
    free_ = i;
    --size_;
    return std::move(callbacks_[i]);
  }

  /// Timestamp of the earliest pending event, computed without moving
  /// the wheel position (a pure read — unlike NextTime(), a later
  /// Push(when) below the returned value is NOT clamped to it). The
  /// sharded engine's rendezvous uses this to pick the next window
  /// start across shards without committing any shard's wheel.
  /// Requires !empty(). Cost: one scan of the finest occupied slot.
  SimTime MinPendingTime() const;

  /// Times a node was put in a slot or the overflow list: once per
  /// Push, plus once per cascade or overflow pull that moved it.
  std::uint64_t placements() const { return placements_; }

 private:
  using Index = std::uint32_t;
  static constexpr Index kNil = ~Index{0};
  static constexpr unsigned kWords = kSlots / 64;

  struct Key {
    SimTime when = 0;
    std::uint64_t seq = 0;  // insertion order, breaks timestamp ties
    Index next = kNil;      // next node in its slot, overflow or free list
  };

  /// An intrusive FIFO of nodes, linked through Key::next.
  struct List {
    Index head = kNil;
    Index tail = kNil;
  };

  /// One wheel level: its slots plus a two-level occupancy bitmap
  /// (bit s of words[s / 64] set iff slot s is nonempty; bit w of
  /// summary set iff words[w] != 0).
  struct Level {
    List slots[kSlots];
    std::uint64_t words[kWords] = {};
    std::uint64_t summary = 0;

    bool occupied(unsigned s) const {
      return (words[s >> 6] >> (s & 63)) & 1;
    }
    void Set(unsigned s) {
      words[s >> 6] |= std::uint64_t{1} << (s & 63);
      summary |= std::uint64_t{1} << (s >> 6);
    }
    void Clear(unsigned s) {
      words[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
      if (words[s >> 6] == 0) summary &= ~(std::uint64_t{1} << (s >> 6));
    }
    /// Lowest nonempty slot. Requires summary != 0.
    unsigned first() const {
      const unsigned w = static_cast<unsigned>(std::countr_zero(summary));
      return (w << 6) | static_cast<unsigned>(std::countr_zero(words[w]));
    }
  };

  Index NewNode() {
    if (free_ == kNil) return GrowArena();
    const Index i = free_;
    free_ = keys_[i].next;
    return i;
  }
  Index GrowArena();
  void Append(List& list, Index i);
  void Place(Index i);
  void CascadeSlot(int level, unsigned s);
  void PullOverflowBlock();
  SimTime Earliest(const List& list) const;  // min `when` in a list
  void SortSlotBySeq(List& slot);
  bool Advance(SimTime bound);

  std::vector<Key> keys_;
  std::vector<Callback> callbacks_;  // parallel to keys_
  Index free_ = kNil;                // free-node list, linked via next

  Level levels_[kLevels];
  /// Events past the horizon, in push order; overflow_min_ is the
  /// earliest of their timestamps (~0 when the list is empty).
  List overflow_;
  SimTime overflow_min_ = ~SimTime{0};

  SimTime cur_ = 0;  // wheel position (<= earliest pending when)
  /// The earliest pending node, once a search has found it: the head of
  /// the level-0 slot at cur_. Pushes only append behind it, so it stays
  /// the front until Pop() takes it (kNil = not yet searched).
  Index front_ = kNil;
  /// Level-0 block (cur_ >> kSlotBits) whose covering slots have been
  /// cascaded. Place() never targets a covering slot of the current
  /// position, so the cascade scan only needs to rerun when the wheel
  /// enters a new block — not on every search.
  std::uint64_t cascaded_block_ = ~std::uint64_t{0};
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t placements_ = 0;
  std::vector<Index> sort_buffer_;  // SortSlotBySeq's reused buffer
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_EVENT_QUEUE_H_
