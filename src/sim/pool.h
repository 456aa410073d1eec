#ifndef POSTBLOCK_SIM_POOL_H_
#define POSTBLOCK_SIM_POOL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace postblock::sim {

/// Recycled per-operation records with stable addresses. Hot-path
/// lambdas capture a record pointer instead of the operation's state, so
/// they stay inside InplaceFunction's inline buffer; once every record
/// the workload keeps in flight exists, acquiring one never allocates.
/// Records live in chunks that double the pool's capacity each time it
/// runs out, so a pool that reaches n records has allocated O(log n)
/// times.
template <typename T>
class RecordPool {
 public:
  T* Acquire() {
    if (!free_.empty()) {
      T* r = free_.back();
      free_.pop_back();
      return r;
    }
    if (created_ == capacity_) Grow();
    Chunk& last = chunks_.back();
    const std::size_t unused = capacity_ - created_;  // all in `last`
    ++created_;
    return &last.records[last.size - unused];
  }

  void Release(T* r) { free_.push_back(r); }

  /// Returns every record to the free list, in flight or not, after
  /// `reset(record)` — the power-cut path, for owners whose in-flight
  /// operations will never complete.
  template <typename Reset>
  void ReleaseAll(Reset reset) {
    free_.clear();
    std::size_t left = created_;
    for (Chunk& c : chunks_) {
      for (std::size_t k = 0; k < c.size && left > 0; ++k, --left) {
        reset(c.records[k]);
        free_.push_back(&c.records[k]);
      }
    }
  }

  /// Records ever handed out and records currently free: equal whenever
  /// no operation is in flight.
  std::size_t allocated() const { return created_; }
  std::size_t free() const { return free_.size(); }

 private:
  static constexpr std::size_t kFirstChunk = 4;

  struct Chunk {
    std::unique_ptr<T[]> records;
    std::size_t size;
  };

  void Grow() {
    const std::size_t size = std::max(kFirstChunk, capacity_);
    chunks_.push_back(Chunk{std::make_unique<T[]>(size), size});
    capacity_ += size;
    free_.reserve(capacity_);  // so Release never reallocates
  }

  std::vector<Chunk> chunks_;
  std::size_t capacity_ = 0;  // records in all chunks
  std::size_t created_ = 0;   // records handed out at least once
  std::vector<T*> free_;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_POOL_H_
