#include "ftl/hybrid_ftl.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace postblock::ftl {

namespace {
// Log blocks per LUN.
constexpr std::uint32_t kLogBlocksPerLun = 4;
}  // namespace

HybridFtl::HybridFtl(ssd::Controller* controller)
    : LegacyFtl(controller), logs_(controller->config().geometry.luns()) {
  const auto& cfg = controller->config();
  const auto& g = cfg.geometry;
  const std::uint32_t pool = kLogBlocksPerLun;
  // Leave the log pool plus two spares per LUN outside the user space.
  const std::uint64_t per_lun_vblocks =
      g.blocks_per_lun() > pool + 2 ? g.blocks_per_lun() - pool - 2 : 1;
  const std::uint64_t cap_by_op = static_cast<std::uint64_t>(
      static_cast<double>(g.total_blocks()) * (1.0 - cfg.over_provisioning));
  user_vblocks_ = std::min<std::uint64_t>(per_lun_vblocks * g.luns(),
                                          cap_by_op);
  user_pages_ = user_vblocks_ * g.pages_per_block;
  map_.resize(user_vblocks_);
  for (auto& logs : logs_) {
    logs.resize(pool);  // slots; LogBlock.vblock==~0 means free
    for (auto& slot : logs) slot.vblock = ~0ull;
  }
}

void HybridFtl::ReleaseBlock(std::uint32_t lun, flash::BlockAddr addr,
                             sim::InplaceCallback done) {
  controller_->EraseBlock(addr, [this, lun, addr,
                                 done = std::move(done)](Status st) {
    if (st.ok()) {
      luns_[lun].free_blocks.push_back(addr);
    } else {
      counters_.Increment("blocks_retired");
    }
    done();
  });
}

std::size_t HybridFtl::PickLogVictim(
    const std::vector<LogBlock>& logs) const {
  std::size_t best = 0;
  std::uint32_t best_fill = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (logs[i].vblock == ~0ull) continue;
    if (logs[i].next_page >= best_fill) {
      best_fill = logs[i].next_page;
      best = i;
    }
  }
  return best;
}

void HybridFtl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
                      trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("write beyond device"));
    });
    return;
  }
  if (controller_->read_only()) {
    counters_.Increment("writes_rejected_read_only");
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::ResourceExhausted(
          "device is read-only: bad-block spares exhausted"));
    });
    return;
  }
  counters_.Increment("host_writes");
  counters_.Increment("host_pages_accepted");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  const SequenceNumber seq = next_seq_++;

  EnqueueOp(lun, [this, vblock, off, token, seq, lun, ctx,
                  cb = std::move(cb)](sim::InplaceCallback op_done) mutable {
    VBlockEntry& e = map_[vblock];
    const auto& g = controller_->config().geometry;
    const std::uint32_t write_point =
        e.data_mapped
            ? controller_->flash()->GetBlockInfo(e.data_phys).write_point
            : 0;
    auto finish = [cb = std::move(cb),
                   op_done = std::move(op_done)](Status st) {
      cb(std::move(st));
      op_done();
    };
    if (e.log_index < 0 && (!e.data_mapped || off >= write_point)) {
      // In-order append into the data block.
      if (!e.data_mapped) {
        if (!TakeFreeBlock(lun, &e.data_phys)) {
          finish(Status::ResourceExhausted("no free blocks on lun"));
          return;
        }
        e.data_mapped = true;
      }
      counters_.Increment("direct_writes");
      const flash::Ppa ppa{e.data_phys.channel, e.data_phys.lun,
                           e.data_phys.plane, e.data_phys.block, off};
      const Lba page_lba = vblock * g.pages_per_block + off;
      controller_->ProgramPage(ppa,
                               flash::PageData{page_lba, seq, token, 0},
                               std::move(finish), ctx);
      return;
    }
    WriteToLog(lun, vblock, off, token, seq, std::move(finish), ctx);
  });
}

void HybridFtl::WriteToLog(std::uint32_t lun, std::uint64_t vblock,
                           std::uint32_t off, std::uint64_t token,
                           SequenceNumber seq, WriteCallback done,
                           trace::Ctx ctx) {
  std::vector<LogBlock>& logs = logs_[lun];
  VBlockEntry& e = map_[vblock];
  const auto& g = controller_->config().geometry;

  if (e.log_index < 0) {
    // Need a log slot; evict (merge) the fullest victim if the pool is
    // dry — the thrashing that makes scattered writes expensive here.
    std::int32_t free_slot = -1;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (logs[i].vblock == ~0ull) {
        free_slot = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (free_slot < 0) {
      const std::size_t victim_slot = PickLogVictim(logs);
      const std::uint64_t victim_vb = logs[victim_slot].vblock;
      counters_.Increment("log_evictions");
      MergeVBlock(lun, victim_vb,
                  [this, lun, vblock, off, token, seq, ctx,
                   done = std::move(done)](Status merge_st) mutable {
                    if (!merge_st.ok()) {
                      done(std::move(merge_st));
                      return;
                    }
                    WriteToLog(lun, vblock, off, token, seq,
                               std::move(done), ctx);
                  });
      return;
    }
    LogBlock& log = logs[free_slot];
    if (!TakeFreeBlock(lun, &log.phys)) {
      controller_->sim()->Schedule(0, [done = std::move(done)]() mutable {
        done(Status::ResourceExhausted("no free blocks on lun"));
      });
      return;
    }
    log.vblock = vblock;
    log.next_page = 0;
    log.offset_map.assign(g.pages_per_block, kUnmappedPage);
    log.sequential_so_far = true;
    e.log_index = free_slot;
  }

  LogBlock& log = logs[static_cast<std::size_t>(e.log_index)];
  if (log.next_page >= g.pages_per_block) {
    // Log full: merge, then retry (the retry lands on the direct or a
    // fresh-log path).
    MergeVBlock(lun, vblock,
                [this, lun, vblock, off, token, seq, ctx,
                 done = std::move(done)](Status merge_st) mutable {
                  if (!merge_st.ok()) {
                    done(std::move(merge_st));
                    return;
                  }
                  WriteToLog(lun, vblock, off, token, seq, std::move(done),
                             ctx);
                });
    return;
  }

  const std::uint32_t page = log.next_page++;
  if (off != page) log.sequential_so_far = false;
  // Invalidate the superseded copy.
  if (log.offset_map[off] != kUnmappedPage) {
    const flash::Ppa prev{log.phys.channel, log.phys.lun, log.phys.plane,
                          log.phys.block, log.offset_map[off]};
    (void)controller_->flash()->MarkInvalid(prev);
  } else if (e.data_mapped) {
    const flash::Ppa prev{e.data_phys.channel, e.data_phys.lun,
                          e.data_phys.plane, e.data_phys.block, off};
    if (controller_->flash()->GetPageState(prev) ==
        flash::PageState::kValid) {
      (void)controller_->flash()->MarkInvalid(prev);
    }
  }
  log.offset_map[off] = page;
  counters_.Increment("log_appends");
  const flash::Ppa dst{log.phys.channel, log.phys.lun, log.phys.plane,
                       log.phys.block, page};
  const Lba page_lba = vblock * g.pages_per_block + off;
  controller_->ProgramPage(dst, flash::PageData{page_lba, seq, token, 0},
                           std::move(done), ctx);
}

struct HybridFtl::MergeJob {
  std::uint32_t lun = 0;
  std::uint64_t vblock = 0;
  bool had_data = false;
  flash::BlockAddr old_data;
  bool had_log = false;
  flash::BlockAddr old_log;
  std::vector<std::uint32_t> offset_map;
  flash::BlockAddr merged;
  std::uint32_t page = 0;
  std::uint32_t produced = 0;  // pages programmed into `merged`
  WriteCallback done;
};

void HybridFtl::MergeVBlock(std::uint32_t lun, std::uint64_t vblock,
                            WriteCallback done) {
  std::vector<LogBlock>& logs = logs_[lun];
  VBlockEntry& e = map_[vblock];
  const auto& g = controller_->config().geometry;

  const std::int32_t slot = e.log_index;
  LogBlock* log = slot >= 0 ? &logs[static_cast<std::size_t>(slot)]
                            : nullptr;

  // Switch merge: a full, perfectly sequential log *is* the new data
  // block — one erase, zero copies.
  if (log != nullptr && log->next_page == g.pages_per_block &&
      log->sequential_so_far) {
    counters_.Increment("switch_merges");
    const bool had_data = e.data_mapped;
    const flash::BlockAddr old_data = e.data_phys;
    e.data_phys = log->phys;
    e.data_mapped = true;
    e.log_index = -1;
    log->vblock = ~0ull;
    if (!had_data) {
      controller_->sim()->Schedule(
          0, [done = std::move(done)]() { done(Status::Ok()); });
      return;
    }
    ReleaseBlock(lun, old_data,
                 [done = std::move(done)]() { done(Status::Ok()); });
    return;
  }

  counters_.Increment("full_merges");
  auto job = std::make_shared<MergeJob>();
  job->lun = lun;
  job->vblock = vblock;
  // Claim the destination before touching the log slot: on exhaustion
  // the vblock's data+log mappings stay intact and readable.
  if (!TakeFreeBlock(lun, &job->merged)) {
    controller_->sim()->Schedule(0, [done = std::move(done)]() {
      done(Status::ResourceExhausted("no free blocks on lun"));
    });
    return;
  }
  job->had_data = e.data_mapped;
  if (e.data_mapped) job->old_data = e.data_phys;
  if (log != nullptr) {
    job->had_log = true;
    job->old_log = log->phys;
    job->offset_map = log->offset_map;
    log->vblock = ~0ull;  // slot released up front (merge owns the block)
    e.log_index = -1;
  }
  job->done = std::move(done);
  MergeStep(job);
}

void HybridFtl::MergeStep(const std::shared_ptr<MergeJob>& job) {
  const auto& g = controller_->config().geometry;
  for (;;) {
    if (job->page >= g.pages_per_block) {
      map_[job->vblock] = VBlockEntry{job->merged, true, -1};
      auto after_data = [this, job]() {
        if (job->had_log) {
          ReleaseBlock(job->lun, job->old_log,
                       [job]() { job->done(Status::Ok()); });
        } else {
          job->done(Status::Ok());
        }
      };
      if (job->had_data) {
        ReleaseBlock(job->lun, job->old_data, after_data);
      } else {
        after_data();
      }
      return;
    }
    const std::uint32_t p = job->page++;
    // Newest copy: log wins over data.
    flash::Ppa src;
    bool have_src = false;
    if (job->had_log && p < job->offset_map.size() &&
        job->offset_map[p] != kUnmappedPage) {
      src = flash::Ppa{job->old_log.channel, job->old_log.lun,
                       job->old_log.plane, job->old_log.block,
                       job->offset_map[p]};
      have_src = controller_->flash()->GetPageState(src) ==
                 flash::PageState::kValid;
    }
    if (!have_src && job->had_data) {
      src = flash::Ppa{job->old_data.channel, job->old_data.lun,
                       job->old_data.plane, job->old_data.block, p};
      have_src = controller_->flash()->GetPageState(src) ==
                 flash::PageState::kValid;
    }
    if (!have_src) continue;
    counters_.Increment("merge_page_copies");
    const flash::Ppa dst{job->merged.channel, job->merged.lun,
                         job->merged.plane, job->merged.block, p};
    controller_->ReadPage(
        src, [this, job, dst](StatusOr<flash::PageData> res) {
          if (!res.ok()) {
            counters_.Increment("merge_read_failures");
            MergeStep(job);
            return;
          }
          controller_->ProgramPage(dst, *res, [this, job](Status st) {
            if (!st.ok()) {
              job->done(std::move(st));
              return;
            }
            ++job->produced;
            MergeStep(job);
          });
        });
    return;
  }
}

void HybridFtl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("read beyond device"));
    });
    return;
  }
  counters_.Increment("host_reads");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  EnqueueOp(lun, [this, vblock, off, lun, ctx,
                  cb = std::move(cb)](sim::InplaceCallback op_done) mutable {
    const VBlockEntry& e = map_[vblock];
    const std::vector<LogBlock>& logs = logs_[lun];
    flash::Ppa src;
    bool have_src = false;
    if (e.log_index >= 0) {
      const LogBlock& log = logs[static_cast<std::size_t>(e.log_index)];
      if (log.offset_map[off] != kUnmappedPage) {
        src = flash::Ppa{log.phys.channel, log.phys.lun, log.phys.plane,
                         log.phys.block, log.offset_map[off]};
        have_src = controller_->flash()->GetPageState(src) ==
                   flash::PageState::kValid;
      }
    }
    if (!have_src && e.data_mapped) {
      src = flash::Ppa{e.data_phys.channel, e.data_phys.lun,
                       e.data_phys.plane, e.data_phys.block, off};
      have_src = controller_->flash()->GetPageState(src) ==
                 flash::PageState::kValid;
    }
    if (!have_src) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      op_done();
      return;
    }
    controller_->ReadPage(
        src,
        [this, cb = std::move(cb), op_done = std::move(op_done)](
            StatusOr<flash::PageData> res) {
          if (!res.ok()) {
            counters_.Increment("read_failures");
            cb(res.status());
          } else {
            cb(res->token);
          }
          op_done();
        },
        ctx);
  });
}

void HybridFtl::Trim(Lba lba, WriteCallback cb, trace::Ctx /*ctx*/) {
  if (lba >= user_pages_) {
    controller_->sim()->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::OutOfRange("trim beyond device"));
    });
    return;
  }
  counters_.Increment("trims");
  const auto& g = controller_->config().geometry;
  const std::uint64_t vblock = lba / g.pages_per_block;
  const std::uint32_t off = static_cast<std::uint32_t>(lba % g.pages_per_block);
  const std::uint32_t lun = LunOf(vblock);
  EnqueueOp(lun, [this, vblock, off, lun,
                  cb = std::move(cb)](sim::InplaceCallback op_done) mutable {
    VBlockEntry& e = map_[vblock];
    std::vector<LogBlock>& logs = logs_[lun];
    if (e.log_index >= 0) {
      LogBlock& log = logs[static_cast<std::size_t>(e.log_index)];
      if (log.offset_map[off] != kUnmappedPage) {
        const flash::Ppa p{log.phys.channel, log.phys.lun, log.phys.plane,
                           log.phys.block, log.offset_map[off]};
        if (controller_->flash()->GetPageState(p) ==
            flash::PageState::kValid) {
          (void)controller_->flash()->MarkInvalid(p);
        }
        log.offset_map[off] = kUnmappedPage;
        cb(Status::Ok());
        op_done();
        return;
      }
    }
    if (e.data_mapped) {
      const flash::Ppa p{e.data_phys.channel, e.data_phys.lun,
                         e.data_phys.plane, e.data_phys.block, off};
      if (controller_->flash()->GetPageState(p) ==
          flash::PageState::kValid) {
        (void)controller_->flash()->MarkInvalid(p);
      }
    }
    cb(Status::Ok());
    op_done();
  });
}

}  // namespace postblock::ftl
