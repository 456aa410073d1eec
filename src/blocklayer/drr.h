#ifndef POSTBLOCK_BLOCKLAYER_DRR_H_
#define POSTBLOCK_BLOCKLAYER_DRR_H_

#include <cstdint>
#include <vector>

namespace postblock::blocklayer {

/// Deficit round-robin (DRR) over one shared slot budget: the QoS rule
/// the mq block layer applies across its queue pairs and the vbd
/// backend across its tenants. A queue spends one credit per dispatch
/// and keeps the turn while it has credit; when every backlogged queue
/// is out of credit, all credits replenish to their weights (a new
/// round). A weight-w queue gets w slots per round and every weight is
/// at least 1, so no backlogged queue starves.
struct DrrArbiter {
  std::vector<std::uint32_t> credits;  // one per queue
  std::uint32_t pos = 0;               // where the next pick starts

  /// Dispatches while `has_slot()`: `serve(q)` takes one request off
  /// queue q (which `has_work(q)` reported backlogged) and must use up
  /// a slot. Stops when no queue has work. Returns the rounds started.
  template <typename HasSlot, typename HasWork, typename Weight,
            typename Serve>
  std::uint64_t Dispatch(HasSlot has_slot, HasWork has_work, Weight weight,
                         Serve serve) {
    std::uint64_t rounds = 0;
    while (has_slot()) {
      const std::uint32_t n = static_cast<std::uint32_t>(credits.size());
      bool any_work = false;
      bool served = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t q = (pos + i) % n;
        if (!has_work(q)) continue;
        any_work = true;
        if (credits[q] == 0) continue;
        --credits[q];
        pos = q;  // keep draining this queue while it has credit
        serve(q);
        served = true;
        break;
      }
      if (!any_work) break;
      if (!served) {
        // Backlogged queues exist but none has credit: new round.
        ++rounds;
        for (std::uint32_t q = 0; q < n; ++q) credits[q] = weight(q);
        pos = (pos + 1) % n;
      }
    }
    return rounds;
  }
};

}  // namespace postblock::blocklayer

#endif  // POSTBLOCK_BLOCKLAYER_DRR_H_
