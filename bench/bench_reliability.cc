// Reliability-layer pricing: what does recovery cost when faults
// actually fire? (That an attached but silent injector costs a healthy
// device nothing is bench_neutrality's silent_injector row.)
//
// Two questions, two sections:
//
//   1. Retry-ladder tax. Every page of a small device gets a scripted
//      first-attempt read failure; mean simulated read latency is
//      compared against a clean run of the same reads. This prices one
//      rung of the ladder (re-sense + escalated tR).
//
//   2. Lifetime to spares exhaustion. With every block's first erase
//      scripted to fail and a small spare budget, the device accepts
//      writes until retirement drains the spares and it drops to
//      read-only. The accepted-write count is deterministic and is the
//      device's usable lifetime under that fault load.
//
// Emits BENCH_reliability.json.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "flash/fault_injector.h"
#include "ftl/page_ftl.h"
#include "sim/completion.h"

namespace postblock {
namespace {

/// Mean simulated latency of one read per page, optionally with every
/// page's first read attempt scripted to fail (one ladder rung each).
SimTime MeanReadLatency(bool faulty) {
  sim::Simulator sim;
  ssd::Config config = ssd::Config::Small();
  config.errors = flash::ErrorModelConfig::None();
  flash::FaultInjector injector(config.geometry);
  config.fault_injector = &injector;
  ssd::Controller controller(&sim, config);
  ftl::PageFtl ftl(&controller);

  const Lba kPages = 256;
  for (Lba lba = 0; lba < kPages; ++lba) {
    sim::Completion done;
    ftl.Write(lba, lba + 1, done.AsCallback(&sim));
    sim.Run();
  }
  if (faulty) {
    for (Lba lba = 0; lba < kPages; ++lba) {
      auto ppa = ftl.Locate(lba);
      if (ppa.has_value()) injector.FailRead(*ppa, 1);
    }
  }
  SimTime total = 0;
  for (Lba lba = 0; lba < kPages; ++lba) {
    const SimTime start = sim.Now();
    bool fired = false;
    ftl.Read(lba, [&](StatusOr<std::uint64_t>) { fired = true; });
    sim.RunUntilPredicate([&] { return fired; });
    total += sim.Now() - start;
  }
  return total / kPages;
}

struct LifetimeOut {
  std::uint64_t writes_accepted = 0;
  std::uint64_t blocks_retired = 0;
};

/// Writes until scripted erase faults drain the spare pool and the
/// device drops to read-only.
LifetimeOut LifetimeToReadOnly() {
  sim::Simulator sim;
  ssd::Config config = ssd::Config::Small();
  config.errors = flash::ErrorModelConfig::None();
  config.reliability.spare_blocks_per_lun = 2;
  flash::FaultInjector injector(config.geometry);
  config.fault_injector = &injector;
  ssd::Controller controller(&sim, config);
  ftl::PageFtl ftl(&controller);
  const auto& g = config.geometry;
  for (std::uint32_t c = 0; c < g.channels; ++c) {
    for (std::uint32_t l = 0; l < g.luns_per_channel; ++l) {
      for (std::uint32_t p = 0; p < g.planes_per_lun; ++p) {
        for (std::uint32_t b = 0; b < g.blocks_per_plane; ++b) {
          injector.FailErase(flash::BlockAddr{c, l, p, b}, 1);
        }
      }
    }
  }
  LifetimeOut out;
  Rng rng(17);
  while (!controller.read_only() && out.writes_accepted < 2000000) {
    sim::Completion done;
    ftl.Write(rng.Next() % 64, out.writes_accepted + 1,
              done.AsCallback(&sim));
    sim.Run();
    if (!done.done() || !done.status().ok()) break;
    ++out.writes_accepted;
  }
  out.blocks_retired = controller.blocks_retired();
  return out;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "reliability", "recovery-path pricing",
      "error recovery is priced end to end: one retry rung adds an "
      "escalated re-sense to a read, and scripted erase faults drain the "
      "spare pool until the device drops to read-only");

  const SimTime clean_ns = MeanReadLatency(/*faulty=*/false);
  const SimTime faulty_ns = MeanReadLatency(/*faulty=*/true);
  const double tax =
      static_cast<double>(faulty_ns) / static_cast<double>(clean_ns);

  const LifetimeOut life = LifetimeToReadOnly();

  Table table({"section", "value", "notes"});
  table.AddRow({"clean read", Table::Int(clean_ns) + " ns", "no faults"});
  table.AddRow({"1-rung read", Table::Int(faulty_ns) + " ns",
                "x" + Table::Num(tax, 2) + " latency tax"});
  table.AddRow({"lifetime", Table::Int(life.writes_accepted) + " writes",
                Table::Int(life.blocks_retired) + " blocks retired"});
  table.Print();

  std::FILE* f = std::fopen("BENCH_reliability.json", "w");
  if (f != nullptr) {
    const ssd::Config config = ssd::Config::Small();
    std::fprintf(f, "{\n");
    bench::WriteJsonMeta(f, &config);
    std::fprintf(f,
                 "  \"retry\": {\"clean_read_ns\": %llu, "
                 "\"one_rung_read_ns\": %llu, \"latency_tax\": %.3f},\n"
                 "  \"lifetime\": {\"writes_until_read_only\": %llu, "
                 "\"blocks_retired\": %llu}\n"
                 "}\n",
                 static_cast<unsigned long long>(clean_ns),
                 static_cast<unsigned long long>(faulty_ns), tax,
                 static_cast<unsigned long long>(life.writes_accepted),
                 static_cast<unsigned long long>(life.blocks_retired));
    std::fclose(f);
    std::printf("\nwrote BENCH_reliability.json\n");
  }
  return 0;
}
