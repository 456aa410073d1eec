// E2 — Figure 2: the controller's GC and wear-leveling modules share
// chips and channels with host IO, so background reclamation surfaces
// as foreground latency ("the garbage collection and wear leveling
// operations thus interfere with the IOs submitted by the
// applications").
//
// We measure the *same read-only workload* three ways: on an idle
// device, concurrently with a write stream on a fresh device (programs
// queue ahead of reads), and concurrently with a write stream on an
// aged device (programs + GC relocations + 2ms erases queue ahead of
// reads).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

struct Observation {
  workload::RunResult reads;
  std::uint64_t gc_moves = 0;
  std::uint64_t gc_erases = 0;
  double wa = 0;
};

Observation Measure(bool aged, bool concurrent_writes) {
  sim::Simulator sim;
  ssd::Device device(&sim, bench::Fig2Config());
  bench::Fig2Age(&sim, &device, aged);
  const std::uint64_t base_moves =
      device.ftl()->counters().Get("gc_page_moves");
  const std::uint64_t base_erases =
      device.ftl()->counters().Get("gc_erases");

  Observation out;
  out.reads = bench::Fig2Reads(&sim, &device, concurrent_writes);
  out.gc_moves = device.ftl()->counters().Get("gc_page_moves") - base_moves;
  out.gc_erases = device.ftl()->counters().Get("gc_erases") - base_erases;
  out.wa = device.WriteAmplification();
  return out;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E2", "Figure 2 — GC/WL interference with host IO",
      "identical random reads slow down when writes — and the GC/WL "
      "traffic they induce on an aged device — share the LUNs and "
      "channels: the read tail absorbs programs and 2ms erases");

  Table table({"scenario", "read p50", "read p99", "read max",
               "read IOPS", "gc moves during run", "gc erases", "WA"});
  struct Scenario {
    const char* name;
    bool aged;
    bool writes;
  };
  for (const Scenario s :
       {Scenario{"reads alone (idle device)", false, false},
        Scenario{"reads + write stream (fresh)", false, true},
        Scenario{"reads + write stream (aged, GC active)", true, true}}) {
    const auto o = Measure(s.aged, s.writes);
    table.AddRow({s.name, Table::Time(o.reads.latency.P50()),
                  Table::Time(o.reads.latency.P99()),
                  Table::Time(o.reads.latency.max()),
                  Table::Num(o.reads.Iops(), 0), Table::Int(o.gc_moves),
                  Table::Int(o.gc_erases), Table::Num(o.wa, 2)});
  }
  table.Print();
  std::printf(
      "\nshape check: each added background component (programs, then "
      "GC moves + erases) pushes the read tail out; p99 grows from "
      "~transfer-bound to program/erase-bound.\n");
  return 0;
}
