#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

#include "common/check.h"

namespace postblock::sim {

/// Adds one node to the arena. Both arrays grow geometrically, so over a
/// queue's life they reallocate O(log peak-pending) times; a reallocation
/// moves the live callbacks, never a caller's reference to one (Pop
/// returns callbacks by value).
EventQueue::Index EventQueue::GrowArena() {
  PB_CHECK(keys_.size() < kNil, "event queue: too many pending events");
  keys_.emplace_back();
  callbacks_.emplace_back();
  return static_cast<Index>(keys_.size() - 1);
}

void EventQueue::Append(List& list, Index i) {
  keys_[i].next = kNil;
  if (list.head == kNil) {
    list.head = i;
  } else {
    keys_[list.tail].next = i;
  }
  list.tail = i;
}

/// Canonical placement: the finest level whose block (the bits above the
/// level's slot index) contains both the node's timestamp and the wheel
/// position. Nodes past the coarsest level's block go to the overflow
/// list.
void EventQueue::Place(Index i) {
  ++placements_;
  const SimTime when = keys_[i].when;
  const std::uint64_t diff = when ^ cur_;
  if (diff >= kHorizon) {
    Append(overflow_, i);
    overflow_min_ = std::min(overflow_min_, when);
    return;
  }
  // The highest differing bit picks the level: bits 0-9 level 0, 10-19
  // level 1, and so on.
  const int level = (std::bit_width(diff | 1) - 1) / kSlotBits;
  const unsigned s =
      static_cast<unsigned>((when >> (kSlotBits * level)) & kSlotMask);
  Level& lv = levels_[level];
  if (lv.slots[s].head == kNil) lv.Set(s);
  Append(lv.slots[s], i);
}

/// Moves every node of a slot that covers cur_ down at least one level.
/// Only covering slots are ever cascaded, so re-placement can never
/// target the list being walked.
void EventQueue::CascadeSlot(int level, unsigned s) {
  Level& lv = levels_[level];
  Index i = lv.slots[s].head;
  lv.slots[s] = List{};
  lv.Clear(s);
  while (i != kNil) {
    const Index next = keys_[i].next;
    Place(i);
    i = next;
  }
}

/// Feeds the overflow list's earliest coarsest-level block into the
/// (empty) wheel; the rest stays behind in push order. The wheel
/// position's top-level block only ever changes here, which is what
/// keeps overflow nodes from interleaving wrongly with wheel nodes.
void EventQueue::PullOverflowBlock() {
  assert(overflow_.head != kNil);
  const std::uint64_t block = overflow_min_ / kHorizon;
  cur_ = std::max(cur_, block * kHorizon);
  Index i = overflow_.head;
  overflow_ = List{};
  overflow_min_ = ~SimTime{0};
  while (i != kNil) {
    const Index next = keys_[i].next;
    const SimTime when = keys_[i].when;
    if (when / kHorizon == block) {
      Place(i);
    } else {
      Append(overflow_, i);
      overflow_min_ = std::min(overflow_min_, when);
    }
    i = next;
  }
}

SimTime EventQueue::Earliest(const List& list) const {
  SimTime t = ~SimTime{0};
  for (Index i = list.head; i != kNil; i = keys_[i].next) {
    t = std::min(t, keys_[i].when);
  }
  return t;
}

/// Nodes in one level-0 slot all share a timestamp (1 ns tick), and a
/// slot's list is filled in push order, so it is normally already
/// sorted by seq. Restores seq order if a placement ever appended an
/// earlier-pushed node behind a later one; runs once per front found.
void EventQueue::SortSlotBySeq(List& slot) {
  bool sorted = true;
  for (Index i = slot.head; keys_[i].next != kNil; i = keys_[i].next) {
    if (keys_[keys_[i].next].seq < keys_[i].seq) {
      sorted = false;
      break;
    }
  }
  if (sorted) return;
  sort_buffer_.clear();
  for (Index i = slot.head; i != kNil; i = keys_[i].next) {
    sort_buffer_.push_back(i);
  }
  std::sort(sort_buffer_.begin(), sort_buffer_.end(),
            [this](Index a, Index b) { return keys_[a].seq < keys_[b].seq; });
  slot = List{};
  for (Index i : sort_buffer_) Append(slot, i);
}

/// Shared search core. Walks the wheel toward the earliest pending
/// event, but commits cur_ only to positions <= `bound`: if the
/// earliest event (or the next slot/overflow hop toward it) lies past
/// `bound`, returns false with cur_ untouched by that final hop. That
/// keeps a deadline-bounded peek from dragging the Push clamp forward
/// to a far-future event. On success cur_ is the earliest event's
/// timestamp and its node is front_. Requires size_ > 0 and
/// front_ == kNil.
bool EventQueue::Advance(SimTime bound) {
  assert(size_ > 0 && front_ == kNil);
  for (;;) {
    // 1) Cascade occupied slots covering cur_, coarsest first, so every
    //    event due in cur_'s level-0 block is actually at level 0. New
    //    pushes can never land in a covering slot (Place resolves them
    //    to a finer level), so one pass per level-0 block suffices.
    if ((cur_ >> kSlotBits) != cascaded_block_) {
      for (int level = kLevels - 1; level >= 1; --level) {
        const unsigned s = static_cast<unsigned>(
            (cur_ >> (kSlotBits * level)) & kSlotMask);
        if (levels_[level].occupied(s)) CascadeSlot(level, s);
      }
      cascaded_block_ = cur_ >> kSlotBits;
    }
    if (levels_[0].summary != 0) {
      // Earliest pending event: all level-0 nodes live in cur_'s
      // 1,024 ns block at slot (when & kSlotMask), so the lowest
      // nonempty slot holds it.
      const unsigned s = levels_[0].first();
      const SimTime t = (cur_ & ~kSlotMask) | s;
      assert(t >= cur_);
      if (t > bound) return false;
      cur_ = t;
      List& slot = levels_[0].slots[s];
      SortSlotBySeq(slot);
      front_ = slot.head;
      return true;
    }
    // 2) Jump to the earliest event of the earliest slot of the finest
    //    nonempty level (finer levels always precede coarser ones in
    //    time): it is the earliest pending event. The next pass
    //    cascades that slot as a covering slot, and the event itself
    //    lands straight in level 0, skipping the levels in between.
    bool advanced = false;
    for (int level = 1; level < kLevels; ++level) {
      const Level& lv = levels_[level];
      if (lv.summary == 0) continue;
      const SimTime target = Earliest(lv.slots[lv.first()]);
      if (target > bound) return false;
      cur_ = target;
      advanced = true;
      break;
    }
    if (advanced) continue;
    // 3) Wheel drained entirely: feed the next overflow block in — but
    //    not when even the earliest overflow event is past `bound`.
    if (overflow_min_ > bound) return false;
    PullOverflowBlock();
  }
}

SimTime EventQueue::MinPendingTime() const {
  assert(size_ > 0);
  if (front_ != kNil) return cur_;
  // Place() keeps a strict time hierarchy regardless of cascade state:
  // nodes at level L live inside cur_'s level-L block but outside its
  // level-(L-1) block, so every node at a finer level precedes every
  // node at a coarser one, and the whole wheel precedes the overflow
  // list. Within one level, slots are time-ordered and each slot's span
  // ends before the next occupied slot begins — so the global minimum
  // is in the earliest occupied slot of the finest occupied level.
  for (int level = 0; level < kLevels; ++level) {
    const Level& lv = levels_[level];
    if (lv.summary == 0) continue;
    const unsigned s = lv.first();
    if (level == 0) {
      // Level-0 nodes in one slot share the 1 ns tick — exact.
      return (cur_ & ~kSlotMask) | s;
    }
    return Earliest(lv.slots[s]);
  }
  return overflow_min_;
}

}  // namespace postblock::sim
