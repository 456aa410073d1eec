// Run report: the metrics + observability subsystems end to end. Runs
// the paper's Figure-2 GC-interference experiment (aged device,
// concurrent random writes, latency-probing reads) with the traffic
// multiplexed through two vbd tenants and the sim-time sampler
// attached, then renders what a black-box device hides and the
// simulator sees:
//
//   1. a per-metric summary table (final cumulative values and rates
//      for every registered metric);
//   2. a Figure-2-style timeline: per-window read p99 next to the GC
//      pages moved in the same window — the latency cliffs line up
//      with collection activity;
//   3. a per-tenant vbd section: quota usage, DRR share of completed
//      IOs, per-tenant latency percentiles;
//   4. the SLO watchdog section: declarative objectives evaluated on
//      the sampling grid, with breach counts and the first breaches;
//   5. the cross-check: final sampled cumulative rows must equal the
//      stack's always-on Counters (exit 1 otherwise).
//
// The sampled time series is written to <prefix>.csv and <prefix>.json
// (git-SHA stamped) and the SLO report to <prefix>.slo.json:
//
//   $ ./run_report            # writes run_report.{csv,json,...}
//   $ ./run_report myrun
//
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/table.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "obs/slo_watchdog.h"
#include "sim/simulator.h"
#include "ssd/device.h"
#include "trace/tracer.h"
#include "vbd/backend.h"
#include "vbd/frontend.h"
#include "vbd/vbd.h"
#include "workload/patterns.h"

using namespace postblock;

namespace {

constexpr SimTime kIntervalNs = 1'000'000;  // 1 ms sampling window

// Renders `n` cells of a bar scaled so that `vmax` fills the width.
std::string Bar(double v, double vmax, int width) {
  const int n = vmax <= 0
                    ? 0
                    : static_cast<int>(v / vmax * width + 0.5);
  std::string s;
  for (int i = 0; i < std::min(n, width); ++i) s += "#";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "run_report";

  sim::Simulator sim;
  metrics::MetricRegistry registry;
  trace::Tracer tracer(1 << 14);
  tracer.set_enabled(true);
  ssd::Config cfg = ssd::Config::Small();
  cfg.over_provisioning = 0.10;  // tight spare space keeps GC busy
  cfg.metrics = &registry;
  ssd::Device device(&sim, cfg);
  const std::uint64_t n = device.num_blocks();

  // Two tenants split the device: "reader" runs the latency probe,
  // "churner" the GC-provoking write stream. DRR admission (shared
  // depth 8, weights 6:1) keeps the probe's device slots protected.
  vbd::BackendConfig bcfg;
  bcfg.shared_depth = 8;
  bcfg.metrics = &registry;
  bcfg.tracer = &tracer;
  vbd::Backend backend(&sim, &device, bcfg);
  vbd::TenantConfig rc;
  rc.name = "reader";
  rc.capacity_blocks = n / 2;
  rc.qos_weight = 6;
  rc.register_metrics = true;
  vbd::Frontend* reader = backend.CreateTenant(rc).value();
  vbd::TenantConfig cc;
  cc.name = "churner";
  cc.capacity_blocks = n / 2;
  cc.qos_weight = 1;
  cc.register_metrics = true;
  vbd::Frontend* churner = backend.CreateTenant(cc).value();

  std::printf("aging the device (tenant fills + 2x churn)...\n");
  workload::SequentialPattern rfill(0, n / 2, /*is_write=*/true);
  workload::RunClosedLoop(&sim, reader, &rfill, n / 2, 8);
  workload::SequentialPattern cfill(0, n / 2, /*is_write=*/true);
  workload::RunClosedLoop(&sim, churner, &cfill, n / 2, 8);
  workload::RandomPattern churn(0, n / 2, /*is_write=*/true, 1, 99);
  workload::RunClosedLoop(&sim, churner, &churn, 2 * n, 8);
  sim.Run();  // drain background GC

  // Declarative objectives, evaluated on every sampling window by the
  // watchdog (read-only on the grid — the schedule cannot notice it).
  // The p99 bound is deliberately tight enough that GC cliffs breach
  // it: the report should *show* the interference, not hide it.
  obs::SloWatchdog watchdog(std::vector<obs::SloSpec>{
      {"reader read p99 <= 1.5ms", "vbd.reader.read_lat_ns",
       obs::SloKind::kMaxP99, 1.5e6, /*min_window_count=*/8},
      {"reader read p999 <= 4ms", "vbd.reader.read_lat_ns",
       obs::SloKind::kMaxP999, 4e6, /*min_window_count=*/8},
      {"device completions >= 1k/s", "dev.completions",
       obs::SloKind::kMinThroughput, 1e3},
  });
  const std::uint32_t health_track =
      tracer.RegisterTrack(trace::kPidFlash, "health");
  watchdog.AttachTrace(&tracer, health_track);

  // Sample the measured phase only: the timeline is the experiment,
  // not the preconditioning. Cumulative columns still read full-run
  // counters, so the final-row cross-check stays exact.
  metrics::Sampler sampler(&sim, &registry, kIntervalNs);
  sampler.set_observer(&watchdog);
  sampler.Start();

  // Concurrent QD2 random-write stream keeps GC live during the reads.
  auto stop = std::make_shared<bool>(false);
  auto writer = std::make_shared<workload::RandomPattern>(
      0, n / 2, /*is_write=*/true, 1, 7);
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [&sim, churner, stop, writer, issue]() {
    if (*stop) return;
    const workload::IoDesc d = writer->Next();
    blocklayer::IoRequest w;
    w.op = blocklayer::IoOp::kWrite;
    w.lba = d.lba;
    w.nblocks = 1;
    w.tokens = {1};
    w.on_complete = [issue, stop](const blocklayer::IoResult&) {
      if (!*stop) (*issue)();
    };
    churner->Submit(std::move(w));
  };
  (*issue)();
  (*issue)();

  std::printf("running the fig2 experiment (reads vs background GC)...\n\n");
  workload::RandomPattern reads(0, n / 2, /*is_write=*/false, 1, 8);
  (void)workload::RunClosedLoop(&sim, reader, &reads, 8000, 4);
  *stop = true;
  *issue = nullptr;  // break the self-reference
  sim.Run();
  sampler.Stop();

  const metrics::TimeSeries& ts = sampler.series();

  // --- 1. Per-metric summary ------------------------------------------------
  const double span_s =
      static_cast<double>(ts.timestamps().back() - ts.timestamps().front()) /
      1e9;
  Table summary({"metric", "kind", "final", "rate (/s, sampled span)"});
  for (const metrics::Column& c : ts.columns()) {
    if (c.is_counter) {
      const std::uint64_t total = c.u64.back();
      const std::uint64_t in_span = total >= c.u64.front()
                                        ? total - c.u64.front()
                                        : 0;
      summary.AddRow({c.name, "counter", Table::Int(total),
                      span_s > 0
                          ? Table::Num(static_cast<double>(in_span) / span_s,
                                       1)
                          : "-"});
    } else if (c.is_float) {
      summary.AddRow({c.name, "gauge", Table::Num(c.f64.back(), 3), "-"});
    }
    // Windowed sub-columns (.p50/.p99/...) describe single intervals;
    // the timeline below is their home, not a whole-run scalar.
  }
  summary.Print();

  // --- 2. Figure-2-style GC-interference timeline ---------------------------
  const metrics::Column* p99 = ts.Find("dev.read_lat_ns.p99");
  const metrics::Column* wc = ts.Find("dev.read_lat_ns.window_count");
  const metrics::Column* gc = ts.Find("ftl.gc_page_moves");
  if (p99 != nullptr && wc != nullptr && gc != nullptr && ts.rows() > 1) {
    // Merge sample rows into at most kBuckets display windows.
    constexpr std::size_t kBuckets = 40;
    const std::size_t rows = ts.rows();
    const std::size_t per = (rows - 1 + kBuckets - 1) / kBuckets;
    struct Win {
      SimTime t = 0;
      std::uint64_t p99 = 0;  // worst window inside the bucket
      std::uint64_t gc = 0;   // pages moved across the bucket
    };
    std::vector<Win> wins;
    for (std::size_t r = 1; r < rows; r += per) {
      Win w;
      w.t = ts.timestamps()[r];
      for (std::size_t k = r; k < std::min(r + per, rows); ++k) {
        if (wc->u64[k] > 0) w.p99 = std::max(w.p99, p99->u64[k]);
        w.gc += metrics::TimeSeries::DeltaU64(*gc, k);
      }
      wins.push_back(w);
    }
    std::uint64_t p99_max = 1, gc_max = 1;
    for (const Win& w : wins) {
      p99_max = std::max(p99_max, w.p99);
      gc_max = std::max(gc_max, w.gc);
    }
    std::printf(
        "\nGC interference timeline (windowed read p99 vs pages moved "
        "by GC,\n%.1f ms per line) — the paper's Figure 2:\n\n",
        static_cast<double>(per * kIntervalNs) / 1e6);
    std::printf("%10s  %-26s %-10s  %-20s %s\n", "t[ms]", "read p99",
                "", "gc moved", "");
    const SimTime t0 = ts.timestamps().front();
    for (const Win& w : wins) {
      std::printf("%10.1f  %-26s %-10s  %-20s %llu\n",
                  static_cast<double>(w.t - t0) / 1e6,
                  Bar(static_cast<double>(w.p99),
                      static_cast<double>(p99_max), 24)
                      .c_str(),
                  Table::Time(w.p99).c_str(),
                  Bar(static_cast<double>(w.gc),
                      static_cast<double>(gc_max), 18)
                      .c_str(),
                  static_cast<unsigned long long>(w.gc));
    }
  }

  // --- 3. Per-tenant vbd section --------------------------------------------
  std::printf("\nper-tenant vbd (DRR admission, shared depth %u):\n\n",
              bcfg.shared_depth);
  {
    const std::uint64_t total_completed =
        reader->stats().completed + churner->stats().completed;
    Table tenants({"tenant", "weight", "quota used", "completed",
                   "DRR share", "read p99", "write p99"});
    const auto row = [&](const vbd::Frontend* fe, std::uint32_t weight) {
      const vbd::TenantStats& st = fe->stats();
      const double quota_pct =
          fe->quota_blocks() > 0
              ? 100.0 * static_cast<double>(fe->quota_used()) /
                    static_cast<double>(fe->quota_blocks())
              : 0;
      const double share =
          total_completed > 0
              ? 100.0 * static_cast<double>(st.completed) /
                    static_cast<double>(total_completed)
              : 0;
      tenants.AddRow(
          {fe->name(), Table::Int(weight),
           Table::Num(quota_pct, 1) + "%", Table::Int(st.completed),
           Table::Num(share, 1) + "%",
           Table::Time(st.read_latency.P99()),
           Table::Time(st.write_latency.P99())});
    };
    row(reader, rc.qos_weight);
    row(churner, cc.qos_weight);
    tenants.Print();
  }

  // --- 4. SLO watchdog section ----------------------------------------------
  std::printf("\nSLO watchdog (%zu objectives on the %u-ms sampling "
              "grid):\n\n",
              watchdog.specs().size(),
              static_cast<std::uint32_t>(kIntervalNs / kMillisecond));
  {
    Table slos({"objective", "metric", "kind", "breaches"});
    for (std::size_t i = 0; i < watchdog.specs().size(); ++i) {
      const obs::SloSpec& s = watchdog.specs()[i];
      slos.AddRow({s.name, s.metric, obs::SloKindName(s.kind),
                   Table::Int(watchdog.breach_count(
                       static_cast<std::uint32_t>(i)))});
    }
    slos.Print();
    const std::size_t show = std::min<std::size_t>(
        watchdog.breaches().size(), 5);
    for (std::size_t i = 0; i < show; ++i) {
      const obs::SloBreach& b = watchdog.breaches()[i];
      std::printf("  breach @%.1f ms: %s observed %.0f (bound %.0f)\n",
                  static_cast<double>(b.at) / 1e6,
                  watchdog.specs()[b.slo].name.c_str(), b.observed,
                  b.bound);
    }
    if (watchdog.breaches().size() > show) {
      std::printf("  ... %zu more (see %s.slo.json)\n",
                  watchdog.breaches().size() - show, prefix.c_str());
    }
    // Every breach also landed on the trace `health` track as a
    // zero-duration slo_breach marker.
    std::uint64_t marks = 0;
    tracer.ForEach([&](const trace::TraceEvent& e) {
      if (e.stage == trace::Stage::kSlo) ++marks;
    });
    std::printf("  health-track markers recorded: %llu\n",
                static_cast<unsigned long long>(marks));
  }

  // --- 5. Cross-check: sampled rows vs always-on Counters -------------------
  struct Check {
    const char* metric;
    std::uint64_t sampled;
    std::uint64_t counter;
  };
  const Check checks[] = {
      {"ssd.pages_programmed", ts.FinalU64("ssd.pages_programmed"),
       device.controller()->counters().Get("pages_programmed")},
      {"ssd.pages_read", ts.FinalU64("ssd.pages_read"),
       device.controller()->counters().Get("pages_read")},
      {"ssd.blocks_erased", ts.FinalU64("ssd.blocks_erased"),
       device.controller()->counters().Get("blocks_erased")},
      {"dev.completions", ts.FinalU64("dev.completions"),
       device.counters().Get("completions")},
      {"ftl.gc_page_moves", ts.FinalU64("ftl.gc_page_moves"),
       device.ftl()->counters().Get("gc_page_moves")},
      {"dev.read_lat_ns.count", ts.FinalU64("dev.read_lat_ns.count"),
       device.read_latency().count()},
      {"vbd.reader.read_lat_ns.count",
       ts.FinalU64("vbd.reader.read_lat_ns.count"),
       reader->stats().read_latency.count()},
  };
  bool ok = true;
  for (const Check& c : checks) {
    if (c.sampled != c.counter) {
      ok = false;
      std::fprintf(stderr,
                   "CROSS-CHECK FAILED: %s sampled %llu != counter %llu\n",
                   c.metric, static_cast<unsigned long long>(c.sampled),
                   static_cast<unsigned long long>(c.counter));
    }
  }
  if (ok) {
    std::printf(
        "\ncross-check OK: final sampled cumulative rows equal the "
        "stack's Counters (%zu metrics checked)\n",
        std::size(checks));
  }

  // --- 6. Export ------------------------------------------------------------
  const std::string csv = prefix + ".csv";
  const std::string json = prefix + ".json";
  const std::string meta = "\"git_sha\": \"" +
                           JsonEscaped(bench::GitShaShort()) +
                           "\", \"interval_ns\": " +
                           std::to_string(kIntervalNs);
  if (!ts.WriteCsv(csv).ok() || !ts.WriteJson(json, meta).ok()) {
    std::fprintf(stderr, "cannot write %s / %s\n", csv.c_str(),
                 json.c_str());
    return 1;
  }
  const std::string slo_json = prefix + ".slo.json";
  {
    std::ofstream f(slo_json, std::ios::trunc);
    f << "{\n  \"meta\": {" << meta << "},\n  \"slo\": "
      << watchdog.ReportJson() << "\n}\n";
  }
  std::printf("wrote %s and %s (%zu samples x %zu columns), %s\n",
              csv.c_str(), json.c_str(), ts.rows(), ts.columns().size(),
              slo_json.c_str());
  return ok ? 0 : 1;
}
