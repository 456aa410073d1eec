#include "ftl/block_ftl.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace postblock::ftl {

BlockFtl::BlockFtl(ssd::Controller* controller)
    : LegacyFtl(controller),
      user_vblocks_(static_cast<std::uint64_t>(
          static_cast<double>(controller->config().geometry.total_blocks()) *
          (1.0 - controller->config().over_provisioning))),
      user_pages_(user_vblocks_ *
                  controller->config().geometry.pages_per_block),
      map_(user_vblocks_) {}

void BlockFtl::Write(Lba lba, std::uint64_t token, WriteCallback cb,
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
        e.mapped ? controller_->flash()->GetBlockInfo(e.phys).write_point
                 : 0;
    if (!e.mapped || off >= write_point) {
      // In-order append (possibly with a gap): the cheap path that makes
      // sequential writes fast on block-mapped devices.
      if (!e.mapped) {
        if (!TakeFreeBlock(lun, &e.phys)) {
          cb(Status::ResourceExhausted("no free blocks on lun"));
          op_done();
          return;
        }
        e.mapped = true;
      }
      counters_.Increment("direct_writes");
      const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                           e.phys.block, off};
      const Lba lba = vblock * g.pages_per_block + off;
      controller_->ProgramPage(
          ppa, flash::PageData{lba, seq, token, 0},
          [cb = std::move(cb), op_done = std::move(op_done)](Status st) {
            cb(std::move(st));
            op_done();
          },
          ctx);
      return;
    }
    // Overwrite or backwards write: copy-on-write merge of the block.
    // The merge's copies and erase carry the host write's span, so a
    // trace shows one random write dragging a whole block behind it.
    counters_.Increment("merges");
    Merge(lun, vblock, off, token, seq,
          [cb = std::move(cb), op_done = std::move(op_done)](Status st) {
            cb(std::move(st));
            op_done();
          },
          ctx);
  });
}

struct BlockFtl::MergeJob {
  std::uint32_t lun = 0;
  std::uint64_t vblock = 0;
  std::uint64_t new_off = 0;
  std::uint64_t token = 0;
  SequenceNumber seq = 0;
  flash::BlockAddr old_phys;
  bool had_old = false;
  flash::BlockAddr new_phys;
  std::uint32_t page = 0;
  WriteCallback done;
  trace::Ctx ctx;
};

void BlockFtl::Merge(std::uint32_t lun, std::uint64_t vblock,
                     std::uint64_t new_off_or_npos, std::uint64_t token,
                     SequenceNumber seq, WriteCallback done,
                     trace::Ctx ctx) {
  auto job = std::make_shared<MergeJob>();
  job->lun = lun;
  job->vblock = vblock;
  job->new_off = new_off_or_npos;
  job->token = token;
  job->seq = seq;
  VBlockEntry& e = map_[vblock];
  job->had_old = e.mapped;
  if (e.mapped) job->old_phys = e.phys;
  if (!TakeFreeBlock(lun, &job->new_phys)) {
    // No destination block: the merge (and the write that forced it)
    // cannot proceed. Nothing has been copied or erased yet, so the old
    // mapping stays intact and readable.
    controller_->sim()->Schedule(0, [done = std::move(done)]() {
      done(Status::ResourceExhausted("no free blocks on lun"));
    });
    return;
  }
  job->done = std::move(done);
  job->ctx = ctx;
  MergeStep(job);
}

void BlockFtl::MergeStep(const std::shared_ptr<MergeJob>& job) {
  // Walk pages 0..ppb-1 in ascending order (constraint C3), taking the
  // new payload at new_off and copying live pages elsewhere.
  const auto& g = controller_->config().geometry;
  auto programmed = [this, job](Status st) {
    if (!st.ok()) {
      job->done(std::move(st));
      return;
    }
    MergeStep(job);
  };
  for (;;) {
    if (job->page >= g.pages_per_block) {
      // Remap, then erase the old block back into the free pool.
      map_[job->vblock] = VBlockEntry{job->new_phys, true};
      if (!job->had_old) {
        job->done(Status::Ok());
        return;
      }
      controller_->EraseBlock(
          job->old_phys,
          [this, job](Status st) {
            if (st.ok()) {
              luns_[job->lun].free_blocks.push_back(job->old_phys);
            } else {
              counters_.Increment("blocks_retired");
            }
            job->done(Status::Ok());
          },
          job->ctx);
      return;
    }
    const std::uint32_t p = job->page++;
    const flash::Ppa dst{job->new_phys.channel, job->new_phys.lun,
                         job->new_phys.plane, job->new_phys.block, p};
    const Lba page_lba = job->vblock * g.pages_per_block + p;
    if (p == job->new_off) {
      controller_->ProgramPage(
          dst, flash::PageData{page_lba, job->seq, job->token, 0},
          programmed, job->ctx);
      return;
    }
    if (!job->had_old) continue;
    const flash::Ppa src{job->old_phys.channel, job->old_phys.lun,
                         job->old_phys.plane, job->old_phys.block, p};
    if (controller_->flash()->GetPageState(src) !=
        flash::PageState::kValid) {
      continue;
    }
    counters_.Increment("merge_page_copies");
    controller_->ReadPage(
        src,
        [this, job, dst, programmed](StatusOr<flash::PageData> res) {
          if (!res.ok()) {
            // Unreadable page: drop it (data loss surfaces on host read).
            counters_.Increment("merge_read_failures");
            MergeStep(job);
            return;
          }
          controller_->ProgramPage(dst, *res, programmed, job->ctx);
        },
        job->ctx);
    return;
  }
}

void BlockFtl::Read(Lba lba, ReadCallback cb, trace::Ctx ctx) {
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
  EnqueueOp(lun, [this, vblock, off, ctx,
                  cb = std::move(cb)](sim::InplaceCallback op_done) mutable {
    const VBlockEntry& e = map_[vblock];
    if (!e.mapped) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      op_done();
      return;
    }
    const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                         e.phys.block, off};
    if (controller_->flash()->GetPageState(ppa) !=
        flash::PageState::kValid) {
      counters_.Increment("host_reads_unmapped");
      cb(std::uint64_t{0});
      op_done();
      return;
    }
    controller_->ReadPage(
        ppa,
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

void BlockFtl::Trim(Lba lba, WriteCallback cb, trace::Ctx /*ctx*/) {
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
  EnqueueOp(lun, [this, vblock, off,
                  cb = std::move(cb)](sim::InplaceCallback op_done) mutable {
    const VBlockEntry& e = map_[vblock];
    if (e.mapped) {
      const flash::Ppa ppa{e.phys.channel, e.phys.lun, e.phys.plane,
                           e.phys.block, off};
      if (controller_->flash()->GetPageState(ppa) ==
          flash::PageState::kValid) {
        (void)controller_->flash()->MarkInvalid(ppa);
      }
    }
    cb(Status::Ok());
    op_done();
  });
}

}  // namespace postblock::ftl
