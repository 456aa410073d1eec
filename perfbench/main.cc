// pb_perfbench — the postblock benchmark program.
//
//   pb_perfbench --workload <aged_mix|mq_read|db_txn|sharded_mix>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--scale-div <k>] [--spans-out <path>]
//
// Runs one workload in this process: a warm-up repetition, then
// repetitions (each a fresh set-up plus a fixed, seeded timed phase)
// until the timed phases add up to --seconds (at least three). Every
// repetition must produce the same model digest. With --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics: traced repetitions interleaved with
// untraced ones, then the layer ladder. Exit status 1 on any
// correctness failure.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

// --- Counting allocator ------------------------------------------------------
// Every heap allocation in the process bumps the counter, so allocs/op
// covers the whole stack under test (and the benchmark's own closed
// loop, which allocates nothing per op in steady state).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics of the result line. Printed beside them but
// left out of it:
//  - the host costs ops_per_s, events_per_s (wall clock) and
//    cpu_ns_per_op (scaled CPU time, see ScaledCpuClock): other tenants
//    of a shared host moved them by more than a gate could allow
//    (ten-seed spreads of 20-48% wall and 8-26% scaled CPU on a
//    shared 4-core host);
//  - sim_lat_us_p50: on mq_read and db_txn it is a fixed service time,
//    the same on every seed;
//  - the op counts, which the result line carries as attempted/failed.
constexpr MetricDef kEndToEnd[] = {
    {"allocs_per_op", "count"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},           {"sim_ops_per_s", "1/s"},
    {"sim_lat_us_mean", "us"},  {"sim_lat_us_p99", "us"},
    {"write_amp", "ratio"},
};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs;
  static const std::vector<std::string> kLadderNames = [] {
    std::vector<std::string> names;
    for (const char* layer : {"sim", "resource", "ssd", "ftl", "blocklayer",
                              "vbd", "db"}) {
      for (const char* m : {".wall_ns_per_op", ".events_per_op",
                            ".allocs_per_op", ".inc_wall_ns_per_op"}) {
        names.push_back(std::string(layer) + m);
      }
    }
    return names;
  }();
  for (const std::string& n : kLadderNames) {
    const bool ns = n.find("wall_ns") != std::string::npos;
    defs.push_back({n.c_str(), ns ? "ns" : "count"});
  }
  static constexpr MetricDef kRest[] = {
      {"submit.ns_per_op", "ns"},
      {"run.ns_per_op", "ns"},
      {"trace.overhead_pct", "%"},
      {"db.checkpoint_wall_ms_p50", "ms"},
      {"ssd.queue_wait_us", "us"},
      {"ssd.gc_stall_us", "us"},
      {"ssd.transfer_us", "us"},
      {"flash.cell_us", "us"},
      {"ftl.map_us", "us"},
      {"blocklayer.schedule_us", "us"},
      {"ftl.gc_page_moves_per_kop", "count"},
      {"ftl.gc_erases_per_kop", "count"},
      {"flash.programs_per_op", "count"},
      {"ssd.gc_stall_read_ns", "ns"},
      {"blocklayer.cpu_util", "ratio"},
      {"blocklayer.merges", "count"},
      {"vbd.tenant_read_p99_spread", "ratio"},
      {"vbd.rejected", "count"},
      {"db.classic.commit_us_p99", "us"},
      {"db.vision.commit_us_p99", "us"},
      {"ftl.classic.write_amp", "ratio"},
      {"db.bp_hit_rate", "ratio"},
      {"db.wal_bytes_per_txn", "B"},
      {"db.vision.host_map_bytes", "B"},
      {"db.classic.device_map_bytes", "B"},
      {"sharded.events_per_round", "count"},
      {"sharded.seam_msgs_per_op", "count"},
      {"sharded.rounds", "count"},
      {"sharded.speedup_vs_w0", "ratio"},
  };
  for (const MetricDef& d : kRest) defs.push_back(d);
  return defs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t scale_div = 1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--scale-div") {
      a->scale_div = std::max<std::uint64_t>(1, std::strtoull(v, nullptr, 10));
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double Finite(double v) { return std::isfinite(v) ? v : 0; }

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("metric %-32s %18.6f %-6s%s\n", name, Finite(value), unit,
              note.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale-div <k>] "
                 "[--spans-out <path>]\n");
    return 2;
  }
  WorkloadFn fn = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) fn = w.run;
  }
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const char* sha = std::getenv("PB_GIT_SHA");
  std::printf("stamp workload=%s seed=%llu git_sha=%s nproc=%u "
              "build_type=%s trace=%d scale_div=%llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              sha != nullptr && *sha != '\0' ? sha : "unknown",
              std::thread::hardware_concurrency(), PB_BUILD_TYPE,
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(args.scale_div));
  std::fflush(stdout);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  RepParams params;
  params.seed = args.seed;
  params.scale_div = args.scale_div;

  {
    RepParams warm = params;
    warm.warmup = true;
    const RepResult w = fn(warm);
    attempted += w.attempted;
    failed += w.failed;
  }

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  double timed = 0;
  // Peak RSS through set-up and one full repetition; later repetitions
  // only add allocator fragmentation, and their count depends on speed.
  double rss_mb = 0;
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMaxReps = 50;
  while (plain.size() < kMinReps ||
         (timed < args.seconds && plain.size() < kMaxReps)) {
    plain.push_back(fn(params));
    timed += plain.back().timed_s;
    if (plain.size() == 1) rss_mb = PeakRssMb();
    if (args.trace) {
      RepParams tp = params;
      tp.traced = true;
      traced.push_back(fn(tp));
      timed += traced.back().timed_s;
    }
  }

  std::uint64_t digest_mismatches = 0;
  const std::string& digest = plain.front().digest;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      if (r.digest != digest) ++digest_mismatches;
    }
  }
  failed += digest_mismatches;
  std::printf("digest %s %s reps=%zu traced_reps=%zu mismatches=%llu\n",
              args.workload.c_str(), digest.c_str(), plain.size(),
              traced.size(),
              static_cast<unsigned long long>(digest_mismatches));

  auto median_of = [](const std::vector<RepResult>& reps, auto&& f) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(f(r));
    return Median(v);
  };
  auto per_wall_s = [&](const std::vector<RepResult>& reps,
                        std::uint64_t RepResult::*count) {
    return median_of(reps, [count](const RepResult& r) {
      return static_cast<double>(r.*count) / r.timed_s;
    });
  };
  const RepResult& first = plain.front();
  std::map<std::string, double> e2e;
  e2e["ops_per_s"] = per_wall_s(plain, &RepResult::ops);
  e2e["events_per_s"] = per_wall_s(plain, &RepResult::events);
  e2e["cpu_ns_per_op"] = median_of(plain, [](const RepResult& r) {
    return r.cpu_s * 1e9 / static_cast<double>(r.ops);
  });
  e2e["allocs_per_op"] = median_of(
      plain, [](const RepResult& r) { return double(r.allocs) / r.ops; });
  e2e["peak_rss_mb"] = rss_mb;
  e2e["setup_s"] =
      median_of(plain, [](const RepResult& r) { return r.setup_s; });
  e2e["sim_ops_per_s"] = first.sim_ops_per_s;
  e2e["sim_lat_us_mean"] = first.sim_lat_us_mean;
  e2e["sim_lat_us_p99"] = first.sim_lat_us_p99;
  e2e["write_amp"] = first.write_amp;

  char samples[64];
  std::snprintf(samples, sizeof(samples), "  (n=%llu samples)",
                static_cast<unsigned long long>(first.lat_samples));
  PrintMetric("ops_per_s", e2e["ops_per_s"], "1/s");
  PrintMetric("events_per_s", e2e["events_per_s"], "1/s");
  PrintMetric("cpu_ns_per_op", e2e["cpu_ns_per_op"], "ns");
  for (const MetricDef& d : kEndToEnd) {
    const bool lat = std::strncmp(d.name, "sim_lat", 7) == 0;
    PrintMetric(d.name, e2e[d.name], d.unit, lat ? samples : "");
  }
  PrintMetric("sim_lat_us_p50", first.sim_lat_us_p50, "us", samples);

  std::map<std::string, double> layer;
  if (args.trace) {
    std::set<std::string> keys;
    for (const RepResult& r : traced) {
      for (const auto& [k, v] : r.layer) keys.insert(k);
    }
    for (const std::string& k : keys) {
      layer[k] = median_of(traced, [&k](const RepResult& r) {
        auto it = r.layer.find(k);
        return it == r.layer.end() ? 0.0 : it->second;
      });
    }
    const double traced_ops = per_wall_s(traced, &RepResult::ops);
    layer["trace.overhead_pct"] =
        (e2e["ops_per_s"] - traced_ops) / e2e["ops_per_s"] * 100.0;
    if (!args.spans_out.empty() && !Spans().WriteTsv(args.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    }
    for (const auto& [k, v] :
         RunLadder(args.seed, args.scale_div, &failed)) {
      layer[k] = v;
    }
  }
  std::vector<MetricDef> layer_defs = PerLayerDefs();
  if (args.trace) {
    std::set<std::string> known;
    for (const MetricDef& d : layer_defs) {
      known.insert(d.name);
      PrintMetric(d.name, layer[d.name], d.unit);
    }
    for (const auto& [k, v] : layer) {
      if (known.count(k) == 0) {
        std::fprintf(stderr, "internal: unlisted per-layer metric %s\n",
                     k.c_str());
        return 2;
      }
    }
  }
  PrintMetric("ops_attempted", static_cast<double>(attempted), "count");
  PrintMetric("ops_failed", static_cast<double>(failed), "count");

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool comma = false;
  auto emit = [&](const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", comma ? ", " : "", name,
                  Finite(value), unit);
    json += buf;
    comma = true;
  };
  if (args.trace) {
    for (const MetricDef& d : layer_defs) emit(d.name, layer[d.name], d.unit);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d.name, e2e[d.name], d.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
