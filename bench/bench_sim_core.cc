// Event-core microbenchmark: measures the simulator's discrete-event
// engine itself — events/sec and heap allocations/event — for the
// timing-wheel + InplaceCallback core (sim::Simulator) against the
// original binary-heap + std::function core (kept verbatim as
// sim::ReferenceEventQueue and re-wrapped here as RefSimulator).
//
// Workloads:
//   pingpong      K self-rescheduling timers, short deltas (the steady
//                 state of every device model in this repo). Acceptance:
//                 wheel >= 3x reference events/sec, 0 allocs/event.
//   burst         same-timestamp bursts (tie-break machinery).
//   wide_horizon  pseudo-random deltas up to ~100 s across every wheel
//                 level (cascade paths; overflow only near a horizon
//                 boundary).
//
// Each row also prints the wheel's placements per event (one per push,
// plus one per cascade or overflow pull that moved the event), an exact
// count of how hard the wheel's level layout makes it work.
//
// Each workload runs bench::kWallClockReps interleaved reps of three
// arms: the reference core, the wheel, and the wheel again (the A/A arm
// whose spread is the noise floor). The speed-up is the median per-rep
// wheel-vs-reference ratio: both cores run seconds apart in one process,
// so machine-speed drift mostly cancels out of it while a relative
// slowdown of the wheel path shows. Both cores must agree on final
// Now(). Emits BENCH_sim_core.json with its gates and prints a table.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/types.h"
#include "bench/bench_util.h"
#include "src/sim/reference_event_queue.h"
#include "src/sim/simulator.h"

// --- Counting allocator hook -------------------------------------------
// Global operator new/delete overrides local to this binary; every heap
// allocation anywhere in the process bumps the counter, so
// "allocations/event" really means the whole scheduling path.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace postblock::sim {
namespace {

/// The pre-timing-wheel simulator core, verbatim from the seed tree:
/// binary heap keyed on (when, seq) + std::function callbacks. The
/// workloads below are templated over the simulator type so both cores
/// run byte-identical schedules.
class RefSimulator {
 public:
  using Callback = std::function<void()>;

  SimTime Now() const { return now_; }
  void Schedule(SimTime delay, Callback cb) {
    queue_.Push(now_ + delay, std::move(cb));
  }
  SimTime Run() {
    while (!queue_.empty()) {
      now_ = queue_.NextTime();
      auto cb = queue_.Pop();
      ++events_;
      cb();
    }
    return now_;
  }
  std::uint64_t events_executed() const { return events_; }

 private:
  ReferenceEventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_ = 0;
};

struct RunStats {
  std::uint64_t events = 0;
  double seconds = 0;
  std::uint64_t allocs = 0;
  std::uint64_t placements = 0;  // wheel only: the heap has no levels
  SimTime final_now = 0;

  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / events : 0;
  }
  double placements_per_event() const {
    return events > 0 ? static_cast<double>(placements) / events : 0;
  }
};

/// Runs one workload on a fresh simulator of type `Sim`: `warm` first
/// (unmeasured; primes internal vectors and allocator caches so the
/// measured phase is steady state), then `work`, measured.
template <typename Sim, typename Warm, typename Work>
RunStats Measure(std::uint64_t events, Warm& warm, Work& work) {
  Sim sim;
  warm(sim);
  RunStats s;
  s.events = events;
  const std::uint64_t alloc0 =
      g_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t placements0 = 0;
  if constexpr (std::is_same_v<Sim, Simulator>) placements0 = sim.placements();
  const auto t0 = std::chrono::steady_clock::now();
  s.final_now = work(sim);
  const auto t1 = std::chrono::steady_clock::now();
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - alloc0;
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  if constexpr (std::is_same_v<Sim, Simulator>) {
    s.placements = sim.placements() - placements0;
  }
  return s;
}

// --- Workloads ---------------------------------------------------------

/// K timers, each rescheduling itself `total/K`-ish times with a short
/// period. Captures are 48 bytes — the size the device models' staging
/// lambdas were rebuilt around — which fills InplaceCallback's inline
/// buffer exactly but forces libstdc++ std::function to the heap.
template <typename Sim>
SimTime PingPong(Sim& sim, std::uint64_t total, unsigned actors) {
  struct Ctx {
    Sim* sim;
    std::uint64_t remaining;
  };
  Ctx ctx{&sim, total};
  struct Fire {
    static void At(Ctx* c, std::uint64_t salt, std::uint64_t payload,
                   std::uint64_t a, std::uint64_t b, std::uint64_t d) {
      if (c->remaining == 0) return;
      --c->remaining;
      c->sim->Schedule(100, [c, salt, payload, a, b, d] {
        At(c, salt + 1, payload ^ salt, a + 1, b ^ a, d + b);
      });
    }
  };
  for (unsigned i = 0; i < actors; ++i) {
    sim.Schedule(1 + (i * 7) % 997, [&ctx, i] {
      Fire::At(&ctx, i, i * 0x9e3779b9ull, i, ~std::uint64_t{i}, 1);
    });
  }
  return sim.Run();
}

/// R rounds of B events all at the same timestamp: stresses the
/// insertion-order tie-break path.
template <typename Sim>
SimTime Burst(Sim& sim, unsigned rounds, unsigned burst) {
  struct Ctx {
    std::uint64_t sink = 0;
  };
  static Ctx ctx;
  for (unsigned r = 1; r <= rounds; ++r) {
    for (unsigned b = 0; b < burst; ++b) {
      sim.Schedule(r * 100, [b, r, x = std::uint64_t{b} * r] {
        ctx.sink += b + r + x;
      });
    }
  }
  return sim.Run();
}

/// Chains with pseudo-random deltas spanning ns to ~100 s: most events
/// land in coarse wheel levels and cascade down.
template <typename Sim>
SimTime WideHorizon(Sim& sim, std::uint64_t total, unsigned chains) {
  struct Ctx {
    Sim* sim;
    std::uint64_t remaining;
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    SimTime NextDelay() {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = lcg >> 33;
      // Mix of short (ns..us) and long (up to ~100 s) delays.
      return (r % 8 == 0) ? (r % (100 * kSecond)) : (r % 4096);
    }
  };
  Ctx ctx{&sim, total};
  struct Fire {
    static void At(Ctx* c, std::uint64_t salt, std::uint64_t payload) {
      if (c->remaining == 0) return;
      --c->remaining;
      c->sim->Schedule(c->NextDelay(),
                       [c, salt, payload] { At(c, salt + 1, payload); });
    }
  };
  for (unsigned i = 0; i < chains; ++i) Fire::At(&ctx, i, i);
  return sim.Run();
}

// Same-run speed-ups over the reference core measured when the wheel
// landed; a rep median more than kSpeedupTolerance below one is a wheel
// regression.
constexpr double kPingPongSpeedup = 3.738;
constexpr double kBurstSpeedup = 2.412;
constexpr double kWideHorizonSpeedup = 1.879;
constexpr double kSpeedupTolerance = 0.15;
// The event-core rework's hard floors: the pingpong steady state runs
// >= 3x the reference core and does not allocate.
constexpr double kMinPingPongSpeedup = 3.0;
constexpr double kMaxWheelAllocsPerEvent = 0.005;

struct Comparison {
  std::string name;
  double landed_speedup = 0;  // the speed-up measured when the wheel landed
  RunStats reference;  // last rep; counts and final Now() are exact
  RunStats wheel;
  double reference_seconds = 0;  // median over reps
  double wheel_seconds = 0;
  std::vector<double> speedups;   // reference / wheel seconds, per rep
  std::vector<double> aa_ratios;  // wheel again / wheel seconds, per rep

  double reference_eps() const {
    return reference.events / reference_seconds;
  }
  double wheel_eps() const { return wheel.events / wheel_seconds; }
  double speedup() const { return postblock::bench::Median(speedups); }
  bool cores_agree() const {
    return reference.final_now == wheel.final_now;
  }
};

template <typename Warm, typename Work>
Comparison Compare(std::string name, double landed_speedup,
                   std::uint64_t events, Warm warm, Work work) {
  Comparison c;
  c.name = std::move(name);
  c.landed_speedup = landed_speedup;
  RunStats wheel_again;
  const auto seconds = postblock::bench::InterleavedReps(
      3, postblock::bench::kWallClockReps, [&](int arm) {
        RunStats& s = arm == 0   ? c.reference
                      : arm == 1 ? c.wheel
                                 : wheel_again;
        s = arm == 0 ? Measure<RefSimulator>(events, warm, work)
                     : Measure<Simulator>(events, warm, work);
        return s.seconds;
      });
  c.reference_seconds = postblock::bench::Median(seconds[0]);
  c.wheel_seconds = postblock::bench::Median(seconds[1]);
  c.speedups = postblock::bench::Ratios(seconds[0], seconds[1]);
  c.aa_ratios = postblock::bench::Ratios(seconds[2], seconds[1]);
  return c;
}

void Print(const Comparison& c) {
  std::printf(
      "%-13s ref: %9.2fM ev/s  %5.2f allocs/ev | wheel: %9.2fM ev/s  "
      "%5.2f allocs/ev | speedup %.2fx  placements/ev %.2f\n",
      c.name.c_str(), c.reference_eps() / 1e6,
      c.reference.allocs_per_event(), c.wheel_eps() / 1e6,
      c.wheel.allocs_per_event(), c.speedup(),
      c.wheel.placements_per_event());
}

void EmitJson(const std::vector<Comparison>& rows,
              const std::vector<postblock::bench::Gate>& gates,
              const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  postblock::bench::WriteJsonMeta(f);
  for (const Comparison& c : rows) {
    std::fprintf(
        f,
        "  \"%s\": {\"events\": %llu, \"reference_eps\": %.0f, "
        "\"wheel_eps\": %.0f, \"speedup\": %.3f, "
        "\"reference_allocs_per_event\": %.4f, "
        "\"wheel_allocs_per_event\": %.4f, "
        "\"wheel_placements_per_event\": %.3f},\n",
        c.name.c_str(), static_cast<unsigned long long>(c.wheel.events),
        c.reference_eps(), c.wheel_eps(), c.speedup(),
        c.reference.allocs_per_event(), c.wheel.allocs_per_event(),
        c.wheel.placements_per_event());
  }
  std::fputs(postblock::bench::GatesJson(gates).c_str(), f);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main() {
  namespace bench = postblock::bench;
  constexpr std::uint64_t kPingPongEvents = 4'000'000;
  constexpr unsigned kActors = 4096;
  constexpr unsigned kRounds = 2000;
  constexpr unsigned kBurst = 1000;
  constexpr std::uint64_t kWideEvents = 2'000'000;
  constexpr unsigned kChains = 4096;

  std::printf("bench_sim_core: discrete-event engine throughput\n");
  std::printf(
      "  reference = binary heap + std::function (pre-change core)\n"
      "  wheel     = hierarchical timing wheel + InplaceCallback\n\n");

  const auto no_warm = [](auto&) {};
  std::vector<Comparison> rows;
  rows.push_back(Compare(
      "pingpong", kPingPongSpeedup, kPingPongEvents + kActors,
      [&](auto& sim) { PingPong(sim, kPingPongEvents / 10, kActors); },
      [&](auto& sim) { return PingPong(sim, kPingPongEvents, kActors); }));
  Print(rows.back());
  rows.push_back(
      Compare("burst", kBurstSpeedup, std::uint64_t{kRounds} * kBurst, no_warm,
              [&](auto& sim) { return Burst(sim, kRounds, kBurst); }));
  Print(rows.back());
  rows.push_back(Compare(
      "wide_horizon", kWideHorizonSpeedup, kWideEvents, no_warm,
      [&](auto& sim) { return WideHorizon(sim, kWideEvents, kChains); }));
  Print(rows.back());

  bool ok = true;
  for (const Comparison& c : rows) {
    if (!c.cores_agree()) {
      std::printf("DETERMINISM MISMATCH in %s: ref Now()=%llu wheel "
                  "Now()=%llu\n",
                  c.name.c_str(),
                  static_cast<unsigned long long>(c.reference.final_now),
                  static_cast<unsigned long long>(c.wheel.final_now));
      ok = false;
    }
  }
  std::printf("\nfinal simulated times: %s\n",
              ok ? "identical across cores" : "MISMATCH");

  std::vector<bench::Gate> gates;
  gates.push_back(bench::CheckGate("sim_core.cores_agree", ok));
  const Comparison& pingpong = rows[0];
  gates.push_back(bench::SpeedupGate("sim_core.pingpong.speedup_floor",
                                     pingpong.speedups, pingpong.aa_ratios,
                                     kMinPingPongSpeedup));
  gates.push_back(bench::MakeGate("sim_core.pingpong.wheel_allocs_per_event",
                                  pingpong.wheel.allocs_per_event(),
                                  bench::Bound::kBelow,
                                  kMaxWheelAllocsPerEvent));
  for (const Comparison& c : rows) {
    gates.push_back(bench::SpeedupGate(
        "sim_core." + c.name + ".speedup", c.speedups, c.aa_ratios,
        c.landed_speedup * (1.0 - kSpeedupTolerance)));
  }

  EmitJson(rows, gates, "BENCH_sim_core.json");
  std::printf("wrote BENCH_sim_core.json\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace postblock::sim

int main() { return postblock::sim::Main(); }
