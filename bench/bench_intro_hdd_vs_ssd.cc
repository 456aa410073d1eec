// E10 — introduction context: "tens of flash chips wired in parallel
// behind a safe cache deliver hundreds of thousands accesses per second
// at a latency of tens of microseconds. Compared to modern hard disks,
// this is a hundredfold improvement in terms of bandwidth and latency."
//
// Also the premise the whole stack was built on: on disk, sequential
// is orders of magnitude faster than random; on the SSD the gap
// (nearly) closes — which is why the disk-era block interface misleads.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/table.h"
#include "hdd/hdd.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

struct DeviceRun {
  double iops = 0;
  double mbps = 0;
  SimTime p50 = 0;
};

DeviceRun RunOn(blocklayer::BlockDevice* dev, sim::Simulator* sim,
                bool random, bool write, std::uint64_t span,
                std::uint32_t qd) {
  std::unique_ptr<workload::Pattern> pattern;
  if (random) {
    pattern =
        std::make_unique<workload::RandomPattern>(0, span, write, 1, 3);
  } else {
    pattern =
        std::make_unique<workload::SequentialPattern>(0, span, write);
  }
  const auto r = workload::RunClosedLoop(sim, dev, pattern.get(),
                                         random ? 4000 : 20000, qd);
  return DeviceRun{r.Iops(), r.BytesPerSec(4096) / (1024.0 * 1024),
                   r.latency.P50()};
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E10", "introduction — SSD vs magnetic disk",
      "~100x better random IO and latency; the seq/rand gap that shaped "
      "3 decades of database design collapses on the SSD");

  Table table({"device", "workload", "IOPS", "bandwidth", "p50",
               "seq/rand gap"});
  double gap_hdd = 0;
  double gap_ssd = 0;
  double hdd_rand_iops = 0;
  double ssd_rand_iops = 0;

  {
    sim::Simulator sim;
    hdd::Hdd disk(&sim);
    const std::uint64_t span = disk.num_blocks();
    const auto seq = RunOn(&disk, &sim, false, false, span, 1);
    const auto rand = RunOn(&disk, &sim, true, false, span, 1);
    gap_hdd = seq.iops / rand.iops;
    hdd_rand_iops = rand.iops;
    table.AddRow({"HDD 7200rpm", "seq 4KiB read", Table::Num(seq.iops, 0),
                  Table::Rate(seq.mbps * 1024 * 1024),
                  Table::Time(seq.p50), ""});
    table.AddRow({"HDD 7200rpm", "rand 4KiB read",
                  Table::Num(rand.iops, 0),
                  Table::Rate(rand.mbps * 1024 * 1024),
                  Table::Time(rand.p50),
                  Table::Num(gap_hdd, 0) + "x"});
  }
  {
    sim::Simulator sim;
    ssd::Config cfg = ssd::Config::Consumer2012();
    cfg.write_buffer.pages = 256;
    ssd::Device device(&sim, cfg);
    const std::uint64_t span = device.num_blocks();
    bench::FillSequential(&sim, &device, span);
    const auto seq = RunOn(&device, &sim, false, false, span, 32);
    const auto rand = RunOn(&device, &sim, true, false, span, 32);
    gap_ssd = seq.iops / rand.iops;
    ssd_rand_iops = rand.iops;
    table.AddRow({"SSD (32 LUNs)", "seq 4KiB read",
                  Table::Num(seq.iops, 0),
                  Table::Rate(seq.mbps * 1024 * 1024),
                  Table::Time(seq.p50), ""});
    table.AddRow({"SSD (32 LUNs)", "rand 4KiB read",
                  Table::Num(rand.iops, 0),
                  Table::Rate(rand.mbps * 1024 * 1024),
                  Table::Time(rand.p50),
                  Table::Num(gap_ssd, 1) + "x"});
  }
  table.Print();
  std::printf(
      "\nSSD/HDD random-read advantage: %.0fx (paper: 'hundredfold').\n"
      "seq/rand gap: HDD %.0fx vs SSD %.1fx — the performance contract "
      "the block interface was built on is gone.\n",
      ssd_rand_iops / hdd_rand_iops, gap_hdd, gap_ssd);
  return 0;
}
