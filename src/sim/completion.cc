#include "sim/completion.h"

#include <type_traits>
#include <utility>

namespace postblock::sim {

void Completion::Complete(Simulator* sim, Status status) {
  done_ = true;
  status_ = std::move(status);
  completed_at_ = sim->Now();
}

std::function<void(Status)> Completion::AsCallback(Simulator* sim) {
  auto cb = [this, sim](Status s) { Complete(sim, std::move(s)); };
  // The device-facing `void(Status)` convention still uses
  // std::function; keep this adapter inside libstdc++'s 16-byte SSO so
  // the completion path stays allocation-free like the event core.
  static_assert(sizeof(cb) <= 2 * sizeof(void*) &&
                std::is_trivially_copyable_v<decltype(cb)>);
  return cb;
}

bool WaitFor(Simulator* sim, const Completion& c) {
  return sim->RunUntilPredicate([&c] { return c.done(); });
}

}  // namespace postblock::sim
