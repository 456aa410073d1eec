#include "ssd/device.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "ftl/block_ftl.h"
#include "ftl/dftl.h"
#include "ftl/hybrid_ftl.h"
#include "ssd/shard_router.h"

namespace postblock::ssd {

namespace {

/// Per-command admission cost on the batched doorbell path
/// (BlockDevice::SubmitBatch): the i-th command of one doorbell ring is
/// admitted at controller_overhead_ns + i * kDoorbellCmdNs. The firmware
/// fetches SQ entries sequentially, but the fixed per-doorbell overhead
/// is paid once for the whole batch — that amortization is what makes
/// batching pay.
constexpr SimTime kDoorbellCmdNs = 200;

/// Completes an op this device does not implement: a typed refusal,
/// inline and before admission, never a silent drop or an emulation.
void Refuse(blocklayer::IoRequest& request, const char* why) {
  if (request.on_complete) {
    request.on_complete(blocklayer::IoResult{Status::Unimplemented(why), {}});
  }
}

/// Adapts a host completion to an FTL answer carrying a status only.
auto StatusReply(blocklayer::IoCallback done) {
  return [done = std::move(done)](Status st) {
    if (done) done(blocklayer::IoResult{std::move(st), {}});
  };
}

/// Adapts a host completion to an FTL answer carrying one token: the
/// name a nameless write was given, or the payload a named read found.
auto TokenReply(blocklayer::IoCallback done) {
  return [done = std::move(done)](StatusOr<std::uint64_t> res) {
    if (!done) return;
    if (res.ok()) {
      done(blocklayer::IoResult{Status::Ok(), {*res}});
    } else {
      done(blocklayer::IoResult{res.status(), {}});
    }
  };
}

}  // namespace

std::unique_ptr<ftl::Ftl> MakeFtl(Controller* controller) {
  switch (controller->config().ftl) {
    case FtlKind::kPageMap:
      return std::make_unique<ftl::PageFtl>(controller);
    case FtlKind::kBlockMap:
      return std::make_unique<ftl::BlockFtl>(controller);
    case FtlKind::kHybrid:
      return std::make_unique<ftl::HybridFtl>(controller);
    case FtlKind::kDftl:
      return std::make_unique<ftl::Dftl>(controller);
    case FtlKind::kVisionAppend:
      return std::make_unique<ftl::AppendFtl>(controller);
  }
  return nullptr;
}

Device::Device(sim::Simulator* sim, const Config& config)
    : sim_(sim), config_(config), tracer_(config.tracer) {
  // Track order is part of the trace contract: the device track
  // precedes every controller track, in both ctors.
  if (tracer_ != nullptr) {
    dev_track_ = tracer_->RegisterTrack(trace::kPidHost, "ssd-device");
  }
  controller_ = std::make_unique<Controller>(sim, config_);
  Init();
}

Device::Device(ShardRouter* router, const Config& config,
               const std::vector<trace::Tracer*>& channel_tracers)
    : sim_(router->controller_sim()),
      router_(router),
      config_(config),
      tracer_(config.tracer) {
  if (tracer_ != nullptr) {
    dev_track_ = tracer_->RegisterTrack(trace::kPidHost, "ssd-device");
  }
  controller_ =
      std::make_unique<Controller>(router, config_, channel_tracers);
  Init();
}

void Device::Init() {
  ftl_ = MakeFtl(controller_.get());
  page_ftl_ = dynamic_cast<ftl::PageFtl*>(ftl_.get());
  append_ftl_ = dynamic_cast<ftl::AppendFtl*>(ftl_.get());
  if (config_.write_buffer.pages > 0) {
    write_buffer_ = std::make_unique<WriteBuffer>(
        sim_, ftl_.get(), config_.write_buffer,
        config_.geometry.luns());
  }
  metrics_ = config_.metrics;
  if (metrics_ != nullptr) {
    for (const char* name : {"requests", "completions", "buffer_read_hits"}) {
      metrics_->AddPolledCounter(std::string("dev.") + name,
                                 [this, name] { return counters_.Get(name); });
    }
    m_read_lat_ = metrics_->AddHistogram("dev.read_lat_ns");
    m_write_lat_ = metrics_->AddHistogram("dev.write_lat_ns");
    metrics_->AddGauge("dev.write_amplification",
                       [this] { return WriteAmplification(); });
    metrics_->AddGauge("dev.write_buffer_pages", [this] {
      return write_buffer_ == nullptr
                 ? 0.0
                 : static_cast<double>(write_buffer_->entries());
    });
    ftl_->RegisterMetrics(metrics_);
  }
}

void Device::Submit(blocklayer::IoRequest request) {
  if (!RouteUnadmitted(request)) Admit(std::move(request), 0);
}

void Device::SubmitBatch(std::vector<blocklayer::IoRequest>& batch) {
  // One doorbell ring: the firmware fetches the batch's SQ entries in
  // order, so the i-th command's admission is offset by i fetch costs —
  // but the fixed controller overhead is paid once for the whole ring.
  counters_.Increment("doorbell_rings");
  counters_.Add("doorbell_cmds", batch.size());
  SimTime offset = 0;
  for (blocklayer::IoRequest& r : batch) {
    if (RouteUnadmitted(r)) continue;
    Admit(std::move(r), offset);
    offset += kDoorbellCmdNs;
  }
}

bool Device::RouteUnadmitted(blocklayer::IoRequest& request) {
  switch (request.op) {
    case blocklayer::IoOp::kRead:
    case blocklayer::IoOp::kWrite:
    case blocklayer::IoOp::kTrim:
      if (append_ftl_ == nullptr) return false;
      counters_.Increment("lba_commands_refused");
      Refuse(request, "vision-append device has no logical address space");
      return true;
    case blocklayer::IoOp::kFlush:
      return false;
    case blocklayer::IoOp::kAtomicGroup:
      if (page_ftl_ == nullptr) {
        Refuse(request, "atomic groups require the page-mapping FTL");
      } else {
        SubmitAtomicGroup(std::move(request));
      }
      return true;
    case blocklayer::IoOp::kNamelessWrite:
    case blocklayer::IoOp::kNamelessRead:
    case blocklayer::IoOp::kNamelessFree:
      // A name is a physical address, and only physical append issues
      // one: any other FTL refuses the vocabulary rather than park
      // named pages among the LBAs its block ops use.
      if (append_ftl_ == nullptr) {
        Refuse(request, "nameless ops require the vision-append FTL");
      } else {
        SubmitNameless(std::move(request));
      }
      return true;
    case blocklayer::IoOp::kHint:
      RouteNonBlockOp(std::move(request), nullptr, &counters_);
      return true;
  }
  return false;
}

void Device::Admit(blocklayer::IoRequest request, SimTime admit_delay) {
  static constexpr const char* kRequestCounter[] = {
      "requests_read", "requests_write", "requests_trim", "requests_flush"};
  counters_.Increment("requests");
  counters_.Increment(kRequestCounter[static_cast<int>(request.op)]);
  if (request.op == blocklayer::IoOp::kWrite &&
      request.tokens.size() != request.nblocks) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::InvalidArgument("write token count != nblocks"), {}});
    });
    return;
  }
  if (request.nblocks == 0) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{Status::Ok(), {}});
    });
    return;
  }
  if (!blocklayer::ExtentInRange(request.lba, request.nblocks,
                                 num_blocks())) {
    sim_->Schedule(0, [request = std::move(request)]() {
      request.on_complete(blocklayer::IoResult{
          Status::OutOfRange("request beyond device"), {}});
    });
    return;
  }
  // Trace identity: mint the root span if no layer above is tracing
  // this request; admission cost becomes a kSchedule span on the device
  // track either way.
  bool root = false;
  const SimTime submit_t = sim_->Now();
  const SimTime admit_cost = config_.controller_overhead_ns + admit_delay;
  if (Traced()) {
    if (request.span == 0) {
      request.span = tracer_->NewSpan();
      root = true;
    }
    tracer_->Record(trace::Stage::kSchedule, blocklayer::OriginOf(request.op),
                    request.span, 0, dev_track_, submit_t,
                    submit_t + admit_cost, request.lba);
  }

  // Firmware admission cost, then fan out page ops. Requests still in
  // admission when power is cut are dropped whole.
  IoRecord* rec = io_records_.Acquire();
  rec->request = std::move(request);
  rec->root = root;
  rec->submit_t = submit_t;
  const std::uint32_t gen = rec->gen;
  auto admitted = [this, rec, gen] {
    if (rec->gen == gen) SubmitPageOps(rec);
  };
  static_assert(sim::InplaceCallback::fits<decltype(admitted)>());
  sim_->Schedule(admit_cost, admitted);
}

void Device::SubmitPageOps(IoRecord* rec) {
  const blocklayer::IoRequest& request = rec->request;
  // A page op may complete synchronously (the legacy FTLs answer some
  // reads inline), and the last completion recycles the record: the
  // loops below read only these copies once their final op is issued.
  const blocklayer::IoOp op = request.op;
  const Lba base = request.lba;
  const std::uint32_t n = request.nblocks;
  const std::uint32_t gen = rec->gen;
  rec->start = sim_->Now();
  rec->remaining = op == blocklayer::IoOp::kFlush ? 1 : n;
  rec->result.status = Status::Ok();
  rec->result.tokens.assign(op == blocklayer::IoOp::kRead ? n : 0, 0);

  // Per-page completions. Every shape is {this, record*, index, gen}.
  auto done = [this, rec, gen](std::uint32_t i) {
    auto cb = [this, rec, i, gen](Status st) {
      OnPageDone(rec, gen, i, std::move(st), 0);
    };
    static_assert(ftl::Ftl::WriteCallback::fits<decltype(cb)>());
    return cb;
  };
  auto read_done = [this, rec, gen](std::uint32_t i) {
    auto cb = [this, rec, i, gen](StatusOr<std::uint64_t> res) {
      if (res.ok()) {
        OnPageDone(rec, gen, i, Status::Ok(), *res);
      } else {
        OnPageDone(rec, gen, i, res.status(), 0);
      }
    };
    static_assert(ftl::Ftl::ReadCallback::fits<decltype(cb)>());
    return cb;
  };

  // Per-page trace context: origin always rides along (it feeds the
  // always-on GC-stall counters); spans only exist while tracing is
  // enabled. Multi-page requests get child spans so per-page flash work
  // still nests under the request in the trace.
  const trace::Origin origin = blocklayer::OriginOf(op);
  const trace::SpanId span = request.span;
  const bool fanout = Traced() && span != 0 && n > 1;
  auto page_ctx = [this, span, origin, fanout]() {
    trace::Ctx ctx{span, 0, origin};
    if (fanout) {
      ctx.span = tracer_->NewSpan();
      ctx.parent = span;
    }
    return ctx;
  };

  switch (op) {
    case blocklayer::IoOp::kRead:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = base + i;
        std::uint64_t buffered = 0;
        if (write_buffer_ != nullptr &&
            write_buffer_->Lookup(lba, &buffered)) {
          counters_.Increment("buffer_read_hits");
          if (Traced() && span != 0) {
            // Served from the write cache: a kMap blip, no flash work.
            tracer_->Record(trace::Stage::kMap, origin, span, 0,
                            dev_track_, sim_->Now(),
                            sim_->Now() + WriteBuffer::kInsertNs, lba);
          }
          auto hit = [this, rec, i, gen, buffered] {
            OnPageDone(rec, gen, i, Status::Ok(), buffered);
          };
          static_assert(sim::InplaceCallback::fits<decltype(hit)>());
          sim_->Schedule(WriteBuffer::kInsertNs, hit);
          continue;
        }
        ftl_->Read(lba, read_done(i), page_ctx());
      }
      break;
    case blocklayer::IoOp::kWrite:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = base + i;
        const std::uint64_t token = request.tokens[i];
        if (write_buffer_ != nullptr) {
          // Buffered writes complete at insert; the deferred drain is
          // background work no single host IO can claim, so spans stop
          // here and the drain's flash ops run under the default
          // (kMeta) context.
          write_buffer_->SubmitWrite(lba, token, done(i));
        } else {
          ftl_->Write(lba, token, done(i), page_ctx());
        }
      }
      break;
    case blocklayer::IoOp::kTrim:
      for (std::uint32_t i = 0; i < n; ++i) {
        const Lba lba = base + i;
        if (write_buffer_ != nullptr) write_buffer_->Drop(lba);
        ftl_->Trim(lba, done(i), page_ctx());
      }
      break;
    case blocklayer::IoOp::kFlush:
      // Single logical page op regardless of nblocks.
      if (write_buffer_ != nullptr) {
        write_buffer_->Flush(done(0));
      } else {
        auto flushed = [this, rec, gen] {
          OnPageDone(rec, gen, 0, Status::Ok(), 0);
        };
        static_assert(sim::InplaceCallback::fits<decltype(flushed)>());
        sim_->Schedule(0, flushed);
      }
      break;
    default:  // only block ops are admitted (RouteUnadmitted)
      break;
  }
}

void Device::OnPageDone(IoRecord* rec, std::uint32_t gen,
                        std::uint32_t index, Status st,
                        std::uint64_t token) {
  if (rec->gen != gen) return;  // the request died in a power cut
  blocklayer::IoResult& result = rec->result;
  if (!st.ok() && result.status.ok()) result.status = std::move(st);
  if (index < result.tokens.size()) result.tokens[index] = token;
  if (--rec->remaining > 0) return;
  const blocklayer::IoRequest& request = rec->request;
  const SimTime latency = sim_->Now() - rec->start;
  switch (request.op) {
    case blocklayer::IoOp::kRead:
      read_latency_.Record(latency);
      if (metrics_ != nullptr) metrics_->Record(m_read_lat_, latency);
      break;
    case blocklayer::IoOp::kWrite:
      write_latency_.Record(latency);
      if (metrics_ != nullptr) metrics_->Record(m_write_lat_, latency);
      break;
    default:
      break;
  }
  counters_.Increment("completions");
  if (rec->root && tracer_ != nullptr) {
    tracer_->Record(trace::Stage::kIo, blocklayer::OriginOf(request.op),
                    request.span, 0, dev_track_, rec->submit_t,
                    sim_->Now(), request.lba);
  }
  // The callback may submit more IO (it gets another record: this one
  // is released only afterwards) or even cut the power (which reclaims
  // this record itself — hence the generation check).
  const blocklayer::IoCallback cb = std::move(rec->request.on_complete);
  cb(result);
  if (rec->gen == gen) {
    ++rec->gen;
    io_records_.Release(rec);
  }
}

bool Device::Supports(blocklayer::IoOp op) const {
  switch (op) {
    case blocklayer::IoOp::kRead:
    case blocklayer::IoOp::kWrite:
    case blocklayer::IoOp::kTrim:
      // A vision-append device has no logical address space to offer:
      // the block vocabulary is honestly refused, not emulated.
      return append_ftl_ == nullptr;
    case blocklayer::IoOp::kFlush:
    case blocklayer::IoOp::kHint:
      return true;
    case blocklayer::IoOp::kAtomicGroup:
      // Atomic groups need the page-mapping FTL's commit marker.
      return page_ftl_ != nullptr;
    case blocklayer::IoOp::kNamelessWrite:
    case blocklayer::IoOp::kNamelessRead:
    case blocklayer::IoOp::kNamelessFree:
      // Names are physical: only the vision-append FTL issues them.
      return append_ftl_ != nullptr;
  }
  return false;
}

DeviceCaps Device::Caps() const {
  return DeviceCaps{ftl_->MappingTableBytes()};
}

void Device::SetMigrationHandler(host::MigrationHandler handler) {
  if (append_ftl_ != nullptr) {
    append_ftl_->SetMigrationListener(std::move(handler));
  }
}

void Device::SubmitAtomicGroup(blocklayer::IoRequest request) {
  counters_.Increment("atomic_groups");
  // The group is ordered after every write acknowledged before it, so a
  // buffered copy of one of its LBAs must neither answer a later read
  // nor drain over it: drop it, as a trim does — and, as for a trim,
  // only for a group in range, since the FTL refuses the whole group
  // otherwise.
  const auto in_range = [this](const auto& extent) {
    return extent.first < num_blocks();
  };
  if (write_buffer_ != nullptr &&
      std::all_of(request.group.begin(), request.group.end(), in_range)) {
    for (const auto& extent : request.group) write_buffer_->Drop(extent.first);
  }
  page_ftl_->WriteAtomic(
      std::move(request.group), StatusReply(std::move(request.on_complete)),
      trace::Ctx{request.span, 0, blocklayer::OriginOf(request.op)});
}

void Device::SubmitNameless(blocklayer::IoRequest request) {
  const trace::Ctx ctx{request.span, 0, blocklayer::OriginOf(request.op)};
  switch (request.op) {
    case blocklayer::IoOp::kNamelessWrite: {
      // The FTL picks the location, issues the name, and persists the
      // command's OOB owner stamp (lba = owner tag, nblocks = owner
      // epoch; 0 = unstamped).
      counters_.Increment("nameless_writes");
      const std::uint64_t token =
          request.tokens.empty() ? 0 : request.tokens[0];
      const Lba owner =
          request.nblocks == 0 ? flash::kNamelessLba : request.lba;
      append_ftl_->NamelessWrite(token, owner, request.nblocks,
                                 request.stream,
                                 TokenReply(std::move(request.on_complete)),
                                 ctx);
      return;
    }
    case blocklayer::IoOp::kNamelessRead:
      counters_.Increment("nameless_reads");
      append_ftl_->NamelessRead(
          request.lba, TokenReply(std::move(request.on_complete)), ctx);
      return;
    default:  // kNamelessFree
      counters_.Increment("nameless_frees");
      append_ftl_->NamelessFree(
          request.lba, StatusReply(std::move(request.on_complete)), ctx);
      return;
  }
}

Status Device::PowerCycle() {
  if (page_ftl_ == nullptr && append_ftl_ == nullptr) {
    return Status::Unimplemented(
        "power-cycle recovery requires the page-mapping or "
        "vision-append FTL");
  }
  counters_.Increment("power_cycles");
  io_records_.ReleaseAll([](IoRecord& r) {
    r.request.on_complete = nullptr;
    ++r.gen;
  });
  if (write_buffer_ != nullptr && !config_.write_buffer.battery_backed) {
    write_buffer_->DiscardAll();
  }
  if (append_ftl_ != nullptr) {
    // Names are physical: nothing device-side to rebuild beyond the
    // FTL's per-block state. The *host* rescans via LiveNames().
    PB_RETURN_IF_ERROR(append_ftl_->PowerCycle());
    return Status::Ok();
  }
  PB_RETURN_IF_ERROR(page_ftl_->PowerCycle());
  // Battery-backed buffers keep their contents; requeue them against
  // the rebuilt FTL (their old drain completions died with the epoch).
  if (write_buffer_ != nullptr && config_.write_buffer.battery_backed) {
    write_buffer_->RequeueAfterPowerCycle();
  }
  return Status::Ok();
}

}  // namespace postblock::ssd
