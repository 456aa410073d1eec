#ifndef POSTBLOCK_SIM_COMPLETION_H_
#define POSTBLOCK_SIM_COMPLETION_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "sim/simulator.h"

namespace postblock::sim {

/// One-shot completion flag with a Status payload. Lets tests and
/// examples write synchronous-looking code over the asynchronous device
/// APIs:
///
///   Completion done;
///   dev->Submit(req, done.AsCallback());
///   ASSERT_TRUE(WaitFor(sim, done));
///   ASSERT_TRUE(done.status().ok());
class Completion {
 public:
  bool done() const { return done_; }
  const Status& status() const { return status_; }
  SimTime completed_at() const { return completed_at_; }

  void Complete(Simulator* sim, Status status = Status::Ok());

  /// Adapts this completion to the `void(Status)` callback convention
  /// used across device interfaces.
  std::function<void(Status)> AsCallback(Simulator* sim);

 private:
  bool done_ = false;
  Status status_;
  SimTime completed_at_ = 0;
};

/// Runs the simulator until `c` completes. Returns false if the event
/// queue drained first (a lost completion — always a bug).
bool WaitFor(Simulator* sim, const Completion& c);

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_COMPLETION_H_
