#ifndef POSTBLOCK_WORKLOAD_DB_TRACE_H_
#define POSTBLOCK_WORKLOAD_DB_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/zipf.h"

namespace postblock::workload {

/// One logical key-value operation for driving db::StorageManager.
struct KvOp {
  enum class Kind { kGet, kPut, kDelete };
  Kind kind = Kind::kGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// OLTP-ish trace generator: zipf-skewed keys (kZipfTheta in
/// db_trace.cc), configurable update fraction — a stand-in for the
/// commit-heavy database workloads whose log writes the paper wants
/// routed to PCM (E7).
struct DbTraceConfig {
  std::uint64_t key_space = 100'000;
  double put_fraction = 0.5;
  double delete_fraction = 0.02;
  std::uint64_t seed = 23;
};

class DbTrace {
 public:
  explicit DbTrace(const DbTraceConfig& config);

  KvOp Next();
  std::vector<KvOp> Take(std::size_t n);

 private:
  DbTraceConfig config_;
  ZipfGenerator keys_;
  Rng rng_;
  std::uint64_t next_value_ = 1;
};

}  // namespace postblock::workload

#endif  // POSTBLOCK_WORKLOAD_DB_TRACE_H_
