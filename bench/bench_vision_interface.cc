// E8 — Section 3, principle 2: replace the memory abstraction with a
// communication abstraction. Three concrete commands beyond
// read/write, each measured against its block-interface workaround:
//
//   trim            vs  leaving dead data for GC to carry,
//   atomic writes   vs  double-write journaling,
//   nameless writes vs  host-assigned LBAs + device mapping table.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/rng.h"
#include "core/atomic_write.h"
#include "db/log_store.h"
#include "workload/patterns.h"

namespace postblock {
namespace {

void TrimExperiment() {
  bench::Section("trim vs no-trim (dead half of the device, then churn)");
  Table table({"variant", "WA", "gc page moves", "gc erases"});
  for (bool use_trim : {false, true}) {
    sim::Simulator sim;
    ssd::Config cfg = ssd::Config::Small();
    cfg.geometry.blocks_per_plane = 64;
    ssd::Device device(&sim, cfg);
    const std::uint64_t n = device.num_blocks();
    bench::FillSequential(&sim, &device, n);
    if (use_trim) {
      // The application tells the device which half is dead.
      blocklayer::IoRequest t;
      t.op = blocklayer::IoOp::kTrim;
      t.lba = n / 2;
      t.nblocks = static_cast<std::uint32_t>(n - n / 2);
      bool fired = false;
      t.on_complete = [&](const blocklayer::IoResult&) { fired = true; };
      device.Submit(std::move(t));
      sim.RunUntilPredicate([&] { return fired; });
    }
    workload::RandomPattern churn(0, n / 2, true, 1, 77);
    bench::Precondition(&sim, &device, &churn, 3 * n / 2);
    table.AddRow({use_trim ? "with trim" : "without trim",
                  Table::Num(device.WriteAmplification(), 2),
                  Table::Int(device.ftl()->counters().Get("gc_page_moves")),
                  Table::Int(device.ftl()->counters().Get("gc_erases"))});
  }
  table.Print();
}

void AtomicExperiment() {
  bench::Section("atomic writes: native command vs double-write journal");
  Table table({"mechanism", "group size", "latency", "flash programs",
               "block writes issued"});
  for (std::size_t group : {4u, 16u, 64u}) {
    for (bool native : {true, false}) {
      sim::Simulator sim;
      ssd::Config cfg = ssd::Config::Consumer2012();
      ssd::Device device(&sim, cfg);
      std::vector<std::pair<Lba, std::uint64_t>> pages;
      for (std::size_t i = 0; i < group; ++i) {
        pages.emplace_back(static_cast<Lba>(i), i + 1);
      }
      const std::uint64_t prog0 =
          device.controller()->counters().Get("pages_programmed");
      SimTime latency = 0;
      if (native) {
        const SimTime t0 = sim.Now();
        bool fired = false;
        device.Submit(blocklayer::IoRequest::AtomicGroup(
            pages, [&](const blocklayer::IoResult&) {
              latency = sim.Now() - t0;
              fired = true;
            }));
        sim.RunUntilPredicate([&] { return fired; });
      } else {
        core::JournaledAtomicWriter writer(&sim, &device,
                                           /*journal_start=*/10000,
                                           /*journal_blocks=*/256);
        bool fired = false;
        writer.WriteAtomic(pages, [&](Status) { fired = true; });
        sim.RunUntilPredicate([&] { return fired; });
        latency = writer.latency().max();
      }
      sim.Run();
      const std::uint64_t programs =
          device.controller()->counters().Get("pages_programmed") - prog0;
      table.AddRow({native ? "native atomic" : "journaled",
                    Table::Int(group), Table::Time(latency),
                    Table::Int(programs),
                    native ? Table::Int(0)
                           : Table::Int(2 * group + 2)});
    }
  }
  table.Print();
}

void LogOnLogExperiment() {
  bench::Section(
      "log-on-log: host log-structured store over the FTL's log (§3)");
  Table table({"configuration", "host WA", "device WA", "compound WA",
               "device gc moves"});
  // Baseline: the same update stream as plain random overwrites — the
  // FTL alone does all the cleaning.
  {
    sim::Simulator sim;
    ssd::Config cfg = ssd::Config::Small();
    cfg.geometry.blocks_per_plane = 64;
    ssd::Device device(&sim, cfg);
    const std::uint64_t n = device.num_blocks();
    const std::uint64_t span = n * 7 / 10;
    bench::FillSequential(&sim, &device, span);
    workload::RandomPattern churn(0, span, true, 1, 21);
    bench::Precondition(&sim, &device, &churn, 2 * span);
    table.AddRow({"no host log (FTL cleans alone)", "1.00",
                  Table::Num(device.WriteAmplification(), 2),
                  Table::Num(device.WriteAmplification(), 2),
                  Table::Int(device.ftl()->counters().Get("gc_page_moves"))});
  }
  for (bool trim : {false, true}) {
    sim::Simulator sim;
    ssd::Config cfg = ssd::Config::Small();
    cfg.geometry.blocks_per_plane = 64;
    ssd::Device device(&sim, cfg);
    db::LogStructuredStore::Options opts;
    // Segments deliberately smaller than a flash block (4 pages vs 32):
    // one erase block then interleaves live and dead host segments, so
    // the FTL's collector and the host's collector genuinely fight.
    // (Block-aligned segments are the degenerate easy case: host
    // logging hands the FTL perfectly sequential traffic.)
    opts.segment_pages = 4;
    opts.records_per_page = 16;
    opts.compact_threshold = 0.4;
    opts.trim_dead_segments = trim;
    db::LogStructuredStore store(&sim, &device, opts);
    // Live set ~70% of the device, so both collectors are under real
    // pressure.
    const std::uint64_t keys =
        device.num_blocks() * opts.records_per_page * 7 / 10;
    Rng rng(21);
    for (std::uint64_t i = 0; i < keys * 3; ++i) {
      store.Put(rng.Uniform(keys), i + 1, [](Status) {});
      if (i % 64 == 0) sim.Run();
    }
    store.Flush([](Status) {});
    sim.Run();
    const double host_wa = store.HostWriteAmplification();
    const double dev_wa = device.WriteAmplification();
    table.AddRow({trim ? "host log + trim" : "host log, no trim",
                  Table::Num(host_wa, 2), Table::Num(dev_wa, 2),
                  Table::Num(host_wa * dev_wa, 2),
                  Table::Int(device.ftl()->counters().Get("gc_page_moves"))});
  }
  table.Print();
  std::printf(
      "  the host log turns device GC trivial (WA ~1) while re-doing the\n"
      "  same cleaning one layer up — the compound cost matches what the\n"
      "  FTL could have done alone. That duplication is exactly the\n"
      "  paper's point: log-structure management belongs in ONE layer,\n"
      "  negotiated over a richer interface.\n");
}

/// False if any nameless write, free or read failed, a name read back
/// a payload other than the one written under it, or the host's list
/// saw fewer migration callbacks than the device made page moves.
bool NamelessExperiment() {
  bench::Section("nameless writes: device picks the address, host holds names");
  ssd::Config cfg = ssd::Config::Small();
  cfg.geometry.blocks_per_plane = 64;
  // The block-interface baseline: a page-map device at the same
  // geometry, whose map is sized by its logical space, not its data.
  sim::Simulator lba_sim;
  const ssd::Device lba_device(&lba_sim, cfg);
  cfg.ftl = ssd::FtlKind::kVisionAppend;
  sim::Simulator sim;
  ssd::Device device(&sim, cfg);
  // The host's (name, payload) list in write order; the peer callback
  // re-files a moved page under its new name. A callback for a name the
  // list does not hold is not counted.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pages;
  std::uint64_t migrations = 0;
  device.SetMigrationHandler([&](std::uint64_t old_name,
                                 std::uint64_t new_name) {
    for (auto& page : pages) {
      if (page.first == old_name) {
        page.first = new_name;
        ++migrations;
        break;
      }
    }
  });
  bool ok = true;
  auto check = [&ok](const Status& st, const char* op) {
    if (st.ok()) return;
    std::fprintf(stderr, "nameless %s failed: %s\n", op,
                 st.ToString().c_str());
    ok = false;
  };
  // Submits `request` and runs until it completes; returns its result.
  auto run = [&](blocklayer::IoRequest request, const char* op) {
    blocklayer::IoResult out{Status::Internal("never completed"), {}};
    bool fired = false;
    request.on_complete = [&](const blocklayer::IoResult& r) {
      out = r;
      fired = true;
    };
    device.Submit(std::move(request));
    sim.RunUntilPredicate([&] { return fired; });
    check(out.status, op);
    return out;
  };
  auto write = [&](std::uint64_t token) {
    const blocklayer::IoResult r =
        run(blocklayer::IoRequest::NamelessWrite(token, {}), "write");
    if (r.status.ok()) pages.emplace_back(r.tokens[0], token);
  };
  const std::size_t capacity = device.num_blocks();
  // Fill 60%, then free/rewrite cycles to provoke relocations.
  for (std::uint64_t i = 0; ok && pages.size() < capacity * 6 / 10; ++i) {
    write(i + 1);
  }
  for (int round = 0; ok && round < 4; ++round) {
    // Free every 4th page — blocks end up 75% live, so reclaiming them
    // forces relocations (and thus peer migration callbacks).
    std::size_t freed = 0;
    for (std::size_t i = 0; i < pages.size(); i += 4) {
      run(blocklayer::IoRequest::NamelessFree(pages[i].first, {}), "free");
      ++freed;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (i % 4 != 0) pages[kept++] = pages[i];
    }
    pages.resize(kept);
    for (std::size_t i = 0; i < freed; ++i) write(round * 100000 + i);
  }
  // Every name the host holds reads back its own payload.
  for (const auto& [name, token] : pages) {
    const blocklayer::IoResult r =
        run(blocklayer::IoRequest::NamelessRead(name, {}), "read");
    if (r.status.ok() && r.tokens[0] != token) {
      check(Status::DataLoss("wrong payload"), "read");
    }
  }
  const std::uint64_t moves =
      device.ftl()->counters().Get("migrate_page_moves");
  if (migrations != moves) {
    std::fprintf(stderr,
                 "migration callbacks %llu != device page moves %llu\n",
                 static_cast<unsigned long long>(migrations),
                 static_cast<unsigned long long>(moves));
    ok = false;
  }
  Table table({"metric", "LBA interface", "nameless interface"});
  table.AddRow({"device map RAM (Caps().mapping_table_bytes)",
                Table::Int(lba_device.Caps().mapping_table_bytes) + " B",
                Table::Int(device.Caps().mapping_table_bytes) + " B"});
  table.AddRow({"pages the host tracks", "n/a (host picks LBAs)",
                Table::Int(pages.size()) + " names"});
  table.AddRow({"peer migration callbacks", "n/a (device hides moves)",
                Table::Int(migrations)});
  table.AddRow({"host allocation state", "allocator + free list",
                "names only"});
  table.Print();
  return ok;
}

}  // namespace
}  // namespace postblock

int main() {
  using namespace postblock;
  bench::Banner(
      "E8", "Section 3 principle 2 — the communication abstraction",
      "trim halves GC cargo for dead data; a native atomic command "
      "costs n+1 programs vs 2n+2 writes + 2 barriers for journaling; "
      "nameless writes shrink device mapping state to per-block "
      "counters and replace hidden migrations with peer callbacks");
  TrimExperiment();
  AtomicExperiment();
  LogOnLogExperiment();
  return NamelessExperiment() ? 0 : 1;
}
