#ifndef POSTBLOCK_SIM_POOL_H_
#define POSTBLOCK_SIM_POOL_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace postblock::sim {

/// Recycled per-operation records with stable addresses. Hot-path
/// lambdas capture a record pointer instead of the operation's state, so
/// they stay inside InplaceFunction's inline buffer; once every record
/// the workload keeps in flight exists, acquiring one never allocates.
template <typename T>
class RecordPool {
 public:
  T* Acquire() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<T>());
      return all_.back().get();
    }
    T* r = free_.back();
    free_.pop_back();
    return r;
  }

  void Release(T* r) { free_.push_back(r); }

  /// Returns every record to the free list, in flight or not, after
  /// `reset(record)` — the power-cut path, for owners whose in-flight
  /// operations will never complete.
  template <typename Reset>
  void ReleaseAll(Reset reset) {
    free_.clear();
    for (auto& r : all_) {
      reset(*r);
      free_.push_back(r.get());
    }
  }

  /// Records ever created and records currently free: equal whenever no
  /// operation is in flight.
  std::size_t allocated() const { return all_.size(); }
  std::size_t free() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<T>> all_;
  std::vector<T*> free_;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_POOL_H_
