#include "sim/simulator.h"

namespace postblock::sim {

bool Simulator::Step() {
  if (queue_.empty()) return false;
  // NextTime finds the event (or returns the one RunUntil's peek found)
  // and Pop takes that same event without searching again.
  now_ = queue_.NextTime();
  auto cb = queue_.Pop();
  ++events_executed_;
  if (fingerprint_on_) {
    // splitmix64-style fold: order-sensitive in the executed timestamp
    // sequence, with the pending depth mixed in so two schedules that
    // pop the same times in a different structural order still diverge.
    std::uint64_t x = now_ ^ (queue_.size() * 0x9e3779b97f4a7c15ull);
    x ^= fingerprint_ + 0x9e3779b97f4a7c15ull + (fingerprint_ << 6) +
         (fingerprint_ >> 2);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    fingerprint_ = x ^ (x >> 31);
  }
  cb();
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  // HasEventAtOrBefore, not NextTime: a plain peek would commit the
  // queue's wheel position to the earliest pending event even when it
  // is past the deadline, and anything scheduled afterwards between the
  // deadline and that event would be clamped onto (and ordered after)
  // it. The bounded peek never advances the wheel past `deadline`.
  while (queue_.HasEventAtOrBefore(deadline)) {
    Step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (Step()) {
    if (pred()) return true;
  }
  return false;
}

}  // namespace postblock::sim
