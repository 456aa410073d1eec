// Neutrality benchmark: what does each observability attachment cost
// the simulator, and does it leave the simulated schedule alone?
//
// One fig2 workload (bench::Fig2Age + bench::Fig2Reads: an aged 2012
// consumer SSD, a QD2 random-write stream keeping GC live, QD4 random
// reads) runs under seven attachments:
//
//   none              nothing attached (the baseline arm)
//   none_again        nothing attached (the A/A arm: its spread against
//                     none is the noise floor of every overhead gate)
//   tracer_disabled   trace::Tracer attached, not recording
//   tracer_recording  trace::Tracer recording every span
//   registry          metrics::MetricRegistry attached, no sampler
//   registry_sampler  registry plus a 1 ms metrics::Sampler over the
//                     measured phase
//   silent_injector   flash::FaultInjector attached, nothing scripted
//                     (consulted before the error model, it draws no Rng)
//
// Every attachment must observe the schedule, never move it: sim end,
// IOs, GC moves and pages programmed equal the baseline's. The sampler
// alone may end up to one interval late (its last parked tick), and
// its final cumulative rows must equal the stack's Counters.
//
// Wall clock follows bench_util.h's rule (interleaved reps, median
// ratio, A/A floor). The attachments a normal run carries are gated:
// disabled tracer and registry <= 2%, silent injector <= 1%. Recording
// and sampling are priced, not gated. Emits BENCH_neutrality.json.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "flash/fault_injector.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "trace/tracer.h"

namespace postblock {
namespace {

enum class Attachment {
  kNone,
  kNoneAgain,
  kTracerDisabled,
  kTracerRecording,
  kRegistry,
  kRegistrySampler,
  kSilentInjector,
};

struct Arm {
  const char* name;
  Attachment attachment;
  /// Gated wall-clock budget (fraction over none); unset = priced only.
  std::optional<double> max_overhead;
};

constexpr double kMaxTracerDisabledOverhead = 0.02;
constexpr double kMaxRegistryOverhead = 0.02;
constexpr double kMaxSilentInjectorOverhead = 0.01;

const Arm kArms[] = {
    {"none", Attachment::kNone, std::nullopt},
    {"none_again", Attachment::kNoneAgain, std::nullopt},
    {"tracer_disabled", Attachment::kTracerDisabled,
     kMaxTracerDisabledOverhead},
    {"tracer_recording", Attachment::kTracerRecording, std::nullopt},
    {"registry", Attachment::kRegistry, kMaxRegistryOverhead},
    {"registry_sampler", Attachment::kRegistrySampler, std::nullopt},
    {"silent_injector", Attachment::kSilentInjector,
     kMaxSilentInjectorOverhead},
};
constexpr int kNumArms = sizeof(kArms) / sizeof(kArms[0]);

constexpr SimTime kSampleIntervalNs = 1'000'000;  // 1 ms of sim time

struct RunOut {
  double seconds = 0;
  SimTime sim_end = 0;
  std::uint64_t ios = 0;
  std::uint64_t gc_moves = 0;
  std::uint64_t pages_programmed = 0;
  std::uint64_t samples = 0;        // registry_sampler only
  std::uint64_t trace_events = 0;   // tracer_recording only
  bool rows_match_counters = true;  // registry_sampler only
};

RunOut RunOnce(Attachment a) {
  trace::Tracer tracer(1 << 16);
  tracer.set_enabled(a == Attachment::kTracerRecording);
  metrics::MetricRegistry registry;
  ssd::Config config = bench::Fig2Config();
  flash::FaultInjector injector(config.geometry);
  if (a == Attachment::kTracerDisabled || a == Attachment::kTracerRecording) {
    config.tracer = &tracer;
  }
  if (a == Attachment::kRegistry || a == Attachment::kRegistrySampler) {
    config.metrics = &registry;
  }
  if (a == Attachment::kSilentInjector) config.fault_injector = &injector;

  const auto wall_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  ssd::Device device(&sim, config);
  bench::Fig2Age(&sim, &device);
  // Sampling covers the measured phase only (the timeline a run report
  // would plot), not the preconditioning.
  metrics::Sampler sampler(&sim, &registry, kSampleIntervalNs);
  const bool sampling = a == Attachment::kRegistrySampler;
  if (sampling) sampler.Start();
  (void)bench::Fig2Reads(&sim, &device);
  if (sampling) sampler.Stop();

  RunOut out;
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  out.sim_end = sim.Now();
  out.ios = device.counters().Get("completions");
  out.gc_moves = device.ftl()->counters().Get("gc_page_moves");
  out.pages_programmed =
      device.controller()->counters().Get("pages_programmed");
  if (a == Attachment::kTracerRecording) {
    out.trace_events = tracer.total_recorded();
  }
  if (sampling) {
    out.samples = sampler.samples_taken();
    // Cumulative columns read the full-run counters, so equality is
    // exact although sampling started after preconditioning.
    const metrics::TimeSeries& ts = sampler.series();
    out.rows_match_counters =
        ts.FinalU64("ssd.pages_programmed") == out.pages_programmed &&
        ts.FinalU64("dev.completions") == out.ios &&
        ts.FinalU64("ftl.gc_page_moves") == out.gc_moves &&
        ts.FinalU64("dev.read_lat_ns.count") ==
            device.read_latency().count();
  }
  return out;
}

/// Device work identical to the baseline; sim end identical too, except
/// that the sampler's last parked tick may trail it by one interval and
/// its final rows must equal the Counters.
bool Neutral(Attachment a, const RunOut& run, const RunOut& none) {
  const bool device_same = run.ios == none.ios &&
                           run.gc_moves == none.gc_moves &&
                           run.pages_programmed == none.pages_programmed;
  const bool end_same =
      a == Attachment::kRegistrySampler
          ? run.sim_end >= none.sim_end &&
                run.sim_end <= none.sim_end + kSampleIntervalNs
          : run.sim_end == none.sim_end;
  return device_same && end_same && run.rows_match_counters;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "neutrality", "attachment cost over the fig2 workload",
      "every observability attachment must leave the simulated schedule "
      "unchanged; a disabled tracer or an attached registry costs <= 2% "
      "wall clock, a silent fault injector <= 1%");

  RunOut last[kNumArms];
  const auto seconds = bench::InterleavedReps(
      kNumArms, bench::kWallClockReps, [&](int arm) {
        last[arm] = RunOnce(kArms[arm].attachment);
        return last[arm].seconds;
      });
  const std::vector<double> aa = bench::Ratios(seconds[1], seconds[0]);
  const double noise_floor = bench::Iqr(aa);

  std::vector<bench::Gate> gates;
  Table table({"attachment", "median wall s", "overhead", "sim_end ns",
               "ios", "gc moves", "samples", "trace events", "schedule"});
  bool all_neutral = true;
  std::vector<double> overheads(kNumArms);
  for (int m = 0; m < kNumArms; ++m) {
    const Arm& arm = kArms[m];
    const std::vector<double> ratios = bench::Ratios(seconds[m], seconds[0]);
    overheads[m] = bench::Median(ratios) - 1.0;
    const bool neutral = Neutral(arm.attachment, last[m], last[0]);
    if (m > 0) {
      all_neutral = all_neutral && neutral;
      gates.push_back(bench::CheckGate(
          std::string("neutrality.") + arm.name + ".neutral", neutral));
    }
    if (arm.max_overhead) {
      gates.push_back(bench::OverheadGate(
          std::string("neutrality.") + arm.name + ".overhead", ratios, aa,
          *arm.max_overhead));
    }
    table.AddRow({arm.name, Table::Num(bench::Median(seconds[m]), 3),
                  Table::Num(overheads[m] * 100.0, 2) + "%",
                  Table::Int(last[m].sim_end), Table::Int(last[m].ios),
                  Table::Int(last[m].gc_moves), Table::Int(last[m].samples),
                  Table::Int(last[m].trace_events),
                  neutral ? "identical" : "DIVERGED"});
  }
  table.Print();
  std::printf(
      "\n%d interleaved reps per attachment; overhead = median per-rep "
      "wall ratio to none - 1; A/A noise floor (IQR of none_again/none) "
      "%.2f%%\n",
      bench::kWallClockReps, noise_floor * 100.0);

  std::FILE* f = std::fopen("BENCH_neutrality.json", "w");
  if (f != nullptr) {
    const ssd::Config config = bench::Fig2Config();
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, &config);
    std::fprintf(f, "  \"reps\": %d,\n  \"noise_floor\": %.4f,\n",
                 bench::kWallClockReps, noise_floor);
    for (int m = 0; m < kNumArms; ++m) {
      std::fprintf(
          f,
          "  \"%s\": {\"median_seconds\": %.4f, \"overhead\": %.4f, "
          "\"sim_end_ns\": %llu, \"ios\": %llu, \"gc_moves\": %llu, "
          "\"pages_programmed\": %llu, \"samples\": %llu, "
          "\"trace_events\": %llu},\n",
          kArms[m].name, bench::Median(seconds[m]), overheads[m],
          static_cast<unsigned long long>(last[m].sim_end),
          static_cast<unsigned long long>(last[m].ios),
          static_cast<unsigned long long>(last[m].gc_moves),
          static_cast<unsigned long long>(last[m].pages_programmed),
          static_cast<unsigned long long>(last[m].samples),
          static_cast<unsigned long long>(last[m].trace_events));
    }
    std::fputs(bench::GatesJson(gates).c_str(), f);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_neutrality.json\n");
  }
  return all_neutral ? 0 : 1;
}
