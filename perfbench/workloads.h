// The benchmark's workloads and its layer ladder.

#ifndef POSTBLOCK_PERFBENCH_WORKLOADS_H_
#define POSTBLOCK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "ssd/config.h"

namespace perfbench {

/// One repetition: fresh set-up (timed as set-up), then the timed phase.
using WorkloadFn = RepResult (*)(const RepParams& params);

struct Workload {
  const char* name;
  WorkloadFn run;
};

/// aged_mix, mq_read, db_txn, sharded_mix.
const std::vector<Workload>& Workloads();

/// Pushes one seeded 4 KiB stream through progressively deeper stacks
/// and returns, per rung, wall ns/op, events/op, allocs/op, the
/// increment over the rung below and the rung's run-to-run spread.
/// Prints the ladder table to stdout and adds failed ops to `failed`.
std::map<std::string, double> RunLadder(std::uint64_t seed,
                                        std::uint64_t scale_div,
                                        std::uint64_t* failed);

/// The fig2 device stack's SSD: Consumer2012's channels, LUNs and
/// blocks per LUN, page FTL, 10% over-provisioning. `tracer` may be null.
postblock::ssd::Config Fig2Config(postblock::trace::Tracer* tracer);

/// Derives an independent stream seed from the run seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench

#endif  // POSTBLOCK_PERFBENCH_WORKLOADS_H_
