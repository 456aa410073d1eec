// Shared pieces of the postblock benchmark: host-side probes (heap
// allocation counter, peak RSS, wall clock), benchmark-side call spans,
// order statistics, the model digest, and the closed-loop block-IO
// generator every block workload and ladder rung runs through.

#ifndef POSTBLOCK_PERFBENCH_COMMON_H_
#define POSTBLOCK_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace perfbench {

using postblock::Lba;
using postblock::SimTime;

// --- Host probes ------------------------------------------------------

/// Heap allocations made by the whole process so far (every global
/// operator new bumps it; main.cc owns the counting allocator).
std::uint64_t AllocCount();

/// Peak resident set of this process, in MiB (getrusage).
double PeakRssMb();

inline std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time used by the whole process so far (every thread), in ns.
/// Time spent waiting for a CPU does not count.
std::uint64_t CpuNs();

/// CPU ns per step of a fixed reference kernel, run now: a timer heap
/// plus random reads of a 4 MiB table, the simulator's own mix. It is
/// the benchmark's code, so no change to the simulator moves it.
double ReferenceNsPerStep();

/// Process CPU time scaled to a nominal host, on which the reference
/// kernel takes kNominalRefNs per step. Each lap is divided by the
/// kernel's speed measured at both of its ends. On a shared host the
/// CPU time of fixed work rises and falls with other tenants' load (by
/// 20% within a run, and more between runs); the scaling takes most of
/// that out, and a slower simulator still reads slower.
class ScaledCpuClock {
 public:
  static constexpr double kNominalRefNs = 100;

  ScaledCpuClock();
  /// Scaled CPU seconds since construction or the last Lap() or
  /// Restart(); the next lap starts on return.
  double Lap();
  /// Starts the next lap now, keeping the last reference reading.
  void Restart() { start_ns_ = CpuNs(); }

 private:
  double ref_ns_;
  std::uint64_t start_ns_;
};

// --- Call spans ---------------------------------------------------------

/// Public entry points the benchmark times from outside the layers.
enum class SpanKind : std::uint8_t {
  kSubmit = 0,  // top layer's Submit
  kRun,         // Simulator::RunUntilPredicate (the event loop)
  kDbTxn,       // StorageManager::Put / Delete (submission half)
  kCheckpoint,  // StorageManager::Checkpoint, submit to completion
  kShardedRun,  // ShardedDeviceSim::Run
  kCount
};

const char* SpanName(SpanKind kind);

/// In-memory span log. Off by default (the untraced run pays one
/// branch per call site); when on, every span updates per-kind totals
/// and the first `capacity` spans are kept for the write-out.
class SpanLog {
 public:
  void Start(std::size_t capacity);
  void Stop() { on_ = false; }
  bool on() const { return on_; }

  void Add(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns) {
    const auto k = static_cast<std::size_t>(kind);
    total_ns_[k] += end_ns - start_ns;
    count_[k] += 1;
    if (kept_.size() < kept_.capacity()) {
      kept_.push_back({start_ns, end_ns, kind});
    }
  }

  std::uint64_t total_ns(SpanKind kind) const {
    return total_ns_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t count(SpanKind kind) const {
    return count_[static_cast<std::size_t>(kind)];
  }
  /// Durations (ns) of the kept spans of one kind.
  std::vector<std::uint64_t> Durations(SpanKind kind) const;
  /// Writes kept spans as TSV (kind, start_ns, end_ns); false on I/O
  /// error.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    SpanKind kind;
  };
  bool on_ = false;
  std::uint64_t total_ns_[static_cast<std::size_t>(SpanKind::kCount)] = {};
  std::uint64_t count_[static_cast<std::size_t>(SpanKind::kCount)] = {};
  std::vector<Span> kept_;
};

SpanLog& Spans();

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind)
      : kind_(kind), on_(Spans().on()), start_(on_ ? WallNs() : 0) {}
  ~ScopedSpan() {
    if (on_) Spans().Add(kind_, start_, WallNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanKind kind_;
  bool on_;
  std::uint64_t start_;
};

/// Simulator::RunUntilPredicate wrapped in a kRun span.
template <typename Pred>
bool RunUntil(postblock::sim::Simulator* sim, Pred&& pred) {
  ScopedSpan span(SpanKind::kRun);
  return sim->RunUntilPredicate(std::forward<Pred>(pred));
}

// --- Statistics ---------------------------------------------------------

double Median(std::vector<double> v);
/// Interquartile range over the median (Python statistics.quantiles,
/// exclusive method), 0 for fewer than two values.
double IqrShare(std::vector<double> v);
/// Exact nearest-rank percentile of raw samples (sorted in place).
std::uint64_t Percentile(std::vector<std::uint64_t>* samples, double p);

// --- Digest -------------------------------------------------------------

/// Order-sensitive FNV-1a over model observables; equal digests mean
/// the simulated outcome repeated exactly.
class Digest {
 public:
  Digest& Add(std::uint64_t v);
  Digest& Add(double v);
  Digest& Add(const std::string& s);
  Digest& Add(const postblock::Counters& counters);
  Digest& Add(const postblock::Histogram& hist);
  std::string Hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- One repetition of a workload -----------------------------------------

struct RepResult {
  double setup_s = 0;   // construction + preconditioning, scaled CPU
  double timed_s = 0;   // timed phase, wall
  double cpu_s = 0;     // timed phase, scaled CPU
  std::uint64_t ops = 0;       // ops completed in the timed phase
  std::uint64_t attempted = 0; // ops + read-back checks, whole rep
  std::uint64_t failed = 0;
  std::uint64_t events = 0;    // simulator events in the timed phase
  std::uint64_t allocs = 0;    // heap allocations in the timed phase
  // Sim-time observables (deterministic for a seed).
  double sim_ops_per_s = 0;
  double sim_lat_us_mean = 0;
  double sim_lat_us_p50 = 0;
  double sim_lat_us_p99 = 0;
  std::uint64_t lat_samples = 0;
  double write_amp = 0;
  std::string digest;
  /// Per-layer observables of this rep (exact counts, stage totals,
  /// span totals); only filled in traced reps.
  std::map<std::string, double> layer;
};

struct RepParams {
  std::uint64_t seed = 1;
  /// Divides every timed-phase op count (tests run at a small size).
  std::uint64_t scale_div = 1;
  /// Warm-up rep: a fraction of the timed phase, not measured.
  bool warmup = false;
  /// Traced rep: tracer attached, spans on, per-layer metrics filled.
  bool traced = false;
};

// --- Closed-loop block IO generator ---------------------------------------

/// One closed-loop client: `queue_depth` slots, each issuing its next
/// IO only when the previous one completed.
struct Client {
  postblock::blocklayer::BlockDevice* device = nullptr;
  std::uint32_t queue_depth = 1;
  std::uint64_t quota = 0;        // IOs to issue
  double write_fraction = 0;      // ignored when `script` is set
  bool sequential = false;        // sequential LBAs instead of uniform
  std::uint64_t lba_count = 0;    // addressable range [0, lba_count)
  std::uint64_t seed = 1;
  /// Pre-generated op stream (is_write, lba), cycled; overrides the
  /// generator above.
  const std::vector<std::pair<bool, Lba>>* script = nullptr;
  /// Token per LBA of the last completed write (0 = never written);
  /// reads are checked against it. May be shared by clients of one
  /// address space. Null disables the check.
  std::vector<std::uint64_t>* shadow = nullptr;
};

/// Drives any number of clients to completion on one simulator.
/// Every write carries a unique token; every read's returned token
/// must equal the shadow's. Conflicting IOs on one LBA are never in
/// flight together (the generator redraws), so the check is exact.
class ClosedLoop {
 public:
  ClosedLoop(postblock::sim::Simulator* sim, std::uint64_t* next_token,
             bool record_latency);
  void Add(const Client& client);
  /// Issues and runs until every client completed its quota.
  void Run();

  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::vector<std::uint64_t>& latencies() { return latencies_; }

 private:
  struct Slot;
  struct State {
    Client c;
    postblock::Rng rng;
    std::uint64_t issued = 0;
    std::uint64_t seq_pos = 0;
    std::vector<Slot> slots;
    /// In-flight marks of the client's address space: 0xff = a write,
    /// else the reader count. Shared by clients of one shadow.
    std::vector<std::uint8_t>* busy = nullptr;
  };
  struct Slot {
    ClosedLoop* loop = nullptr;
    State* state = nullptr;
    Lba lba = 0;
    std::uint64_t token = 0;
    SimTime submitted = 0;
    bool write = false;
  };

  void Issue(Slot* slot);
  void OnDone(Slot* slot, const postblock::blocklayer::IoResult& r);
  /// Draws the next (is_write, lba) for a state, avoiding LBAs with a
  /// conflicting IO in flight.
  std::pair<bool, Lba> Draw(State* s);

  postblock::sim::Simulator* sim_;
  std::uint64_t* next_token_;
  bool record_latency_;
  std::vector<std::unique_ptr<State>> states_;
  std::map<const void*, std::vector<std::uint8_t>> busy_;  // per space
  std::uint64_t target_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::uint64_t> latencies_;
};

/// Fills [0, blocks) of `device` sequentially at QD 32 (set-up).
std::uint64_t FillSequential(postblock::sim::Simulator* sim,
                             postblock::blocklayer::BlockDevice* device,
                             std::uint64_t blocks,
                             std::vector<std::uint64_t>* shadow,
                             std::uint64_t* next_token);

/// Uniform random overwrites of [0, blocks) at QD 32 (set-up aging).
std::uint64_t AgeRandom(postblock::sim::Simulator* sim,
                        postblock::blocklayer::BlockDevice* device,
                        std::uint64_t blocks, std::uint64_t writes,
                        std::uint64_t seed,
                        std::vector<std::uint64_t>* shadow,
                        std::uint64_t* next_token);

/// Fills the sim-latency fields of `r` from raw per-op samples (ns).
void SetLatency(RepResult* r, std::vector<std::uint64_t>* samples_ns);

}  // namespace perfbench

#endif  // POSTBLOCK_PERFBENCH_COMMON_H_
