// Trace replayer: feed a block-level IO trace through any stack
// configuration and report what the device did with it. Traces are
// plain text, one request per line:
//
//     <R|W|T|F> <lba> <nblocks>
//
// (read / write / trim / flush). With no file argument, a built-in
// OLTP-ish sample trace is generated and replayed, so the example is
// runnable out of the box:
//
//   $ ./trace_replay                    # built-in sample, page-map FTL
//   $ ./trace_replay mytrace.txt hybrid
//
// --trace-out=PATH additionally records the replay with the latency
// attribution subsystem and dumps a Chrome trace-event JSON — open it
// in Perfetto (ui.perfetto.dev) or chrome://tracing to see every IO's
// time split across queues, FTL, GC and flash:
//
//   $ ./trace_replay --trace-out=replay.trace.json
//
// --metrics-out=PATH attaches the metrics registry and samples the
// whole stack every millisecond of sim time, dumping the windowed
// time series (CSV, or JSON when PATH ends in .json) — feed it to
// run_report or any plotting tool:
//
//   $ ./trace_replay --metrics-out=replay.metrics.csv

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "sim/simulator.h"
#include "ssd/device.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "workload/zipf.h"

using namespace postblock;

namespace {

struct TraceEntry {
  char op;
  Lba lba;
  std::uint32_t nblocks;
};

std::vector<TraceEntry> LoadTrace(const std::string& path,
                                  std::uint64_t device_blocks) {
  std::vector<TraceEntry> trace;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return trace;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceEntry e{};
    if (!(ls >> e.op >> e.lba >> e.nblocks)) {
      std::fprintf(stderr, "skipping malformed line %zu: %s\n", lineno,
                   line.c_str());
      continue;
    }
    if (!blocklayer::ExtentInRange(e.lba, e.nblocks, device_blocks)) {
      std::fprintf(stderr, "skipping out-of-range line %zu\n", lineno);
      continue;
    }
    trace.push_back(e);
  }
  return trace;
}

std::vector<TraceEntry> SampleTrace(std::uint64_t device_blocks) {
  // A zipf-skewed 70/30 read/write mix with occasional trims + flushes,
  // resembling a page-level database trace.
  std::vector<TraceEntry> trace;
  const std::uint64_t span = device_blocks / 2;
  workload::ZipfGenerator zipf(span, 0.9, 17);
  Rng rng(99);
  for (Lba lba = 0; lba < span; ++lba) {
    trace.push_back({'W', lba, 1});  // load phase
  }
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = zipf.Next();
    const double dice = rng.NextDouble();
    if (dice < 0.70) {
      trace.push_back({'R', lba, 1});
    } else if (dice < 0.97) {
      trace.push_back({'W', lba, 1});
    } else if (dice < 0.99) {
      trace.push_back({'T', lba, 1});
    } else {
      trace.push_back({'F', 0, 1});
    }
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --trace-out=PATH / --metrics-out=PATH wherever they
  // appear; the remaining positional args keep their old meaning
  // (trace file, FTL kind).
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::string kFlag = "--trace-out=";
    const std::string kMetricsFlag = "--metrics-out=";
    if (a.rfind(kFlag, 0) == 0) {
      trace_out = a.substr(kFlag.size());
      if (trace_out.empty()) {
        std::fprintf(stderr, "--trace-out needs a path\n");
        return 1;
      }
    } else if (a.rfind(kMetricsFlag, 0) == 0) {
      metrics_out = a.substr(kMetricsFlag.size());
      if (metrics_out.empty()) {
        std::fprintf(stderr, "--metrics-out needs a path\n");
        return 1;
      }
    } else {
      args.push_back(a);
    }
  }

  sim::Simulator sim;
  ssd::Config cfg = ssd::Config::Consumer2012();
  cfg.write_buffer.pages = 128;
  if (args.size() > 1) {
    const std::string& kind = args[1];
    if (kind == "block") cfg.ftl = ssd::FtlKind::kBlockMap;
    if (kind == "hybrid") cfg.ftl = ssd::FtlKind::kHybrid;
    if (kind == "dftl") cfg.ftl = ssd::FtlKind::kDftl;
  }
  trace::Tracer tracer(1 << 20);
  if (!trace_out.empty()) {
    tracer.set_enabled(true);
    cfg.tracer = &tracer;
  }
  metrics::MetricRegistry registry;
  if (!metrics_out.empty()) cfg.metrics = &registry;
  ssd::Device device(&sim, cfg);
  metrics::Sampler sampler(&sim, &registry, /*interval_ns=*/1'000'000);
  if (!metrics_out.empty()) sampler.Start();

  const std::vector<TraceEntry> trace =
      !args.empty() ? LoadTrace(args[0], device.num_blocks())
                    : SampleTrace(device.num_blocks());
  if (trace.empty()) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }
  std::printf("replaying %zu requests on a %s-FTL device (QD16)...\n",
              trace.size(), ssd::FtlKindName(cfg.ftl));

  // Closed-loop replay at queue depth 16, preserving trace order.
  Histogram read_lat, write_lat;
  std::size_t next = 0;
  std::size_t completed = 0;
  std::uint64_t next_token = 1;
  std::uint64_t errors = 0;
  std::function<void()> issue = [&]() {
    if (next >= trace.size()) return;
    const TraceEntry e = trace[next++];
    blocklayer::IoRequest req;
    req.lba = e.lba;
    req.nblocks = e.nblocks;
    switch (e.op) {
      case 'W':
        req.op = blocklayer::IoOp::kWrite;
        for (std::uint32_t b = 0; b < e.nblocks; ++b) {
          req.tokens.push_back(next_token++);
        }
        break;
      case 'T':
        req.op = blocklayer::IoOp::kTrim;
        break;
      case 'F':
        req.op = blocklayer::IoOp::kFlush;
        break;
      default:
        req.op = blocklayer::IoOp::kRead;
    }
    const SimTime t0 = sim.Now();
    const char op = e.op;
    req.on_complete = [&, t0, op](const blocklayer::IoResult& r) {
      if (!r.status.ok()) ++errors;
      if (op == 'R') read_lat.Record(sim.Now() - t0);
      if (op == 'W') write_lat.Record(sim.Now() - t0);
      ++completed;
      issue();
    };
    device.Submit(std::move(req));
  };
  const SimTime start = sim.Now();
  for (int i = 0; i < 16; ++i) issue();
  sim.RunUntilPredicate([&] { return completed >= trace.size(); });
  sim.Run();
  sampler.Stop();
  const double seconds =
      static_cast<double>(sim.Now() - start) / 1e9;

  Table table({"metric", "value"});
  table.AddRow({"requests", Table::Int(trace.size())});
  table.AddRow({"errors", Table::Int(errors)});
  table.AddRow({"trace time (simulated)", Table::Num(seconds, 3) + " s"});
  table.AddRow({"read p50 / p99", Table::Time(read_lat.P50()) + " / " +
                                      Table::Time(read_lat.P99())});
  table.AddRow({"write p50 / p99", Table::Time(write_lat.P50()) + " / " +
                                       Table::Time(write_lat.P99())});
  table.AddRow({"write amplification",
                Table::Num(device.WriteAmplification(), 2)});
  table.AddRow({"gc page moves",
                Table::Int(device.ftl()->counters().Get("gc_page_moves"))});
  table.AddRow(
      {"flash energy",
       Table::Num(static_cast<double>(device.controller()->EnergyNj()) /
                      1e9,
                  3) +
           " J"});
  table.Print();

  if (!trace_out.empty()) {
    const Status st = trace::WriteChromeTrace(tracer, trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf(
        "\nwrote %s: %zu trace events (%llu recorded, %llu dropped by "
        "the ring) — open in Perfetto (ui.perfetto.dev) or "
        "chrome://tracing\n%s",
        trace_out.c_str(), tracer.size(),
        static_cast<unsigned long long>(tracer.total_recorded()),
        static_cast<unsigned long long>(tracer.dropped()),
        tracer.breakdown().Summary().c_str());
  }
  if (!metrics_out.empty()) {
    const bool json = metrics_out.size() >= 5 &&
                      metrics_out.rfind(".json") == metrics_out.size() - 5;
    const Status st = json ? sampler.series().WriteJson(metrics_out)
                           : sampler.series().WriteCsv(metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", metrics_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf(
        "\nwrote %s: %llu samples x %zu metrics (1 ms sim interval) — "
        "feed to run_report or any plotting tool\n",
        metrics_out.c_str(),
        static_cast<unsigned long long>(sampler.samples_taken()),
        sampler.series().columns().size());
  }
  return 0;
}
