#include "ssd/controller.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "sim/inplace_callback.h"
#include "ssd/shard_router.h"

namespace postblock::ssd {

namespace {
/// Read-retry ladder depth: after an uncorrectable first read the
/// controller re-senses up to this many more times, each rung adding an
/// escalating multiple of the array read time.
constexpr std::uint32_t kReadRetrySteps = 4;
/// Extra array time per rung = rung_index * this fraction of tR.
constexpr double kRetryLatencyFactor = 1.0;
}  // namespace

Controller::Controller(sim::Simulator* sim, const Config& config)
    : sim_(sim),
      config_(config),
      flash_(config.geometry, config.timing, config.errors, config.seed),
      tracer_(config.tracer),
      metrics_(config.metrics) {
  Init(nullptr, {});
}

Controller::Controller(ShardRouter* router, const Config& config,
                       const std::vector<trace::Tracer*>& channel_tracers)
    : sim_(router->controller_sim()),
      config_(config),
      flash_(config.geometry, config.timing, config.errors, config.seed),
      tracer_(config.tracer),
      metrics_(config.metrics) {
  // The registry's polled gauges (units busy, channel busy, GC clocks)
  // read channel-shard state from the sampler's shard — unsupported
  // until metrics grow a fold-at-rendezvous path.
  PB_CHECK(config.metrics == nullptr,
           "metrics sampling is not supported on the sharded device");
  PB_CHECK(router->plan().channel_shard.size() == config.geometry.channels,
           "shard plan does not cover every channel of the config");
  Init(router, channel_tracers);
}

void Controller::Init(ShardRouter* router,
                      const std::vector<trace::Tracer*>& channel_tracers) {
  router_ = router;
  sharded_ = router != nullptr;
  const auto& g = config_.geometry;
  if (sharded_) {
    chan_tracers_ = channel_tracers;
    chan_tracers_.resize(g.channels, nullptr);
  }
  channels_.reserve(g.channels);
  for (std::uint32_t c = 0; c < g.channels; ++c) {
    sim::Simulator* chan_sim = sharded_ ? router_->channel_sim(c) : sim_;
    channels_.push_back(std::make_unique<Channel>(
        chan_sim, c, config_.timing, g.page_size_bytes));
    channels_.back()->set_tracer(sharded_ ? chan_tracers_[c] : tracer_);
  }
  units_per_lun_ = config_.plane_parallelism ? g.planes_per_lun : 1;
  units_.reserve(g.luns() * units_per_lun_);
  for (std::uint32_t l = 0; l < g.luns(); ++l) {
    sim::Simulator* unit_sim =
        sharded_ ? router_->channel_sim(l / g.luns_per_channel) : sim_;
    for (std::uint32_t p = 0; p < units_per_lun_; ++p) {
      units_.push_back(std::make_unique<sim::Resource>(
          unit_sim, "lun-" + std::to_string(l) + "." + std::to_string(p)));
    }
  }
  unit_gc_.resize(units_.size());
  gc_stall_read_by_chan_.assign(g.channels, 0);
  gc_stall_write_by_chan_.assign(g.channels, 0);
  injector_ = config_.fault_injector;
  flash_.set_fault_injector(injector_);
  spares_.assign(g.luns(), config_.reliability.spare_blocks_per_lun);
  if (sharded_) {
    // Per-unit timeline tracks live on the owning channel's ring; the
    // shared tracer only ever records from the controller shard (health
    // events, flash array, device spans).
    bool any = false;
    for (trace::Tracer* t : chan_tracers_) any = any || t != nullptr;
    if (any) {
      unit_tracks_.reserve(units_.size());
      for (std::uint32_t u = 0; u < units_.size(); ++u) {
        const std::uint32_t chan =
            u / (units_per_lun_ * g.luns_per_channel);
        trace::Tracer* t = chan_tracers_[chan];
        unit_tracks_.push_back(
            t == nullptr
                ? 0
                : t->RegisterTrack(trace::kPidFlash, units_[u]->name()));
      }
    }
    if (tracer_ != nullptr) {
      health_track_ = tracer_->RegisterTrack(trace::kPidFlash, "health");
      flash_.set_tracer(tracer_, sim_);
    }
  } else if (tracer_ != nullptr) {
    unit_tracks_.reserve(units_.size());
    for (const auto& u : units_) {
      unit_tracks_.push_back(
          tracer_->RegisterTrack(trace::kPidFlash, u->name()));
    }
    // Media-health events (retry rungs, block retirement) on their own
    // track, so error handling is visible next to the op timeline.
    health_track_ = tracer_->RegisterTrack(trace::kPidFlash, "health");
    flash_.set_tracer(tracer_, sim_);
  }
  if (metrics_ != nullptr) RegisterMetrics();
}

void Controller::RegisterMetrics() {
  metrics::MetricRegistry* m = metrics_;
  // Counted flash events, polled from the flash Counters the ops
  // already bump: a read per attempt (each retry rung is a real array
  // read), an erase even when it retires the block, and a retired block
  // as an erase failure. Energy covers every array op and transfer.
  static constexpr struct {
    const char* stream;
    const char* counter;
  } kFlash[] = {
      {"ssd.pages_read", "pages_read"},
      {"ssd.pages_programmed", "pages_programmed"},
      {"ssd.blocks_erased", "blocks_erased"},
      {"ssd.copybacks", "copybacks"},
      {"ssd.read_retries", "read_retries"},
      {"ssd.blocks_retired", "erase_failures"},
      {"ssd.reads_correctable", "reads_correctable"},
      {"ssd.reads_uncorrectable", "reads_uncorrectable"},
      {"ssd.erase_failures", "erase_failures"},
      {"ssd.energy_nj", "energy_nj"},
  };
  for (const auto& f : kFlash) {
    m->AddPolledCounter(f.stream, [this, name = f.counter] {
      return flash_.counters().Get(name);
    });
  }
  // Windowed op latency (queueing included), reset every interval.
  m_read_lat_ = m->AddHistogram("ssd.read_lat_ns");
  m_program_lat_ = m->AddHistogram("ssd.program_lat_ns");
  m_erase_lat_ = m->AddHistogram("ssd.erase_lat_ns");
  // Host-visible latency of reads that needed at least one retry rung
  // (the "retry latency tax"), windowed like the other op histograms.
  m_retry_lat_ = m->AddHistogram("ssd.read_retry_lat_ns");
  // The bad-block spare budget.
  m->AddGauge("ssd.spare_blocks", [this] {
    return static_cast<double>(spare_blocks_total());
  });
  m->AddGauge("ssd.read_only",
              [this] { return read_only_ ? 1.0 : 0.0; });
  // Busy-time integrals: per-window deltas over these divided by the
  // window length give busy fractions (BusyClock arithmetic, PR 2).
  m->AddPolledCounter("ssd.gc_stall_read_ns",
                      [this] { return GcStallReadNs(); });
  m->AddPolledCounter("ssd.gc_stall_write_ns",
                      [this] { return GcStallWriteNs(); });
  m->AddPolledCounter("ssd.units_busy_ns", [this] {
    std::uint64_t total = 0;
    for (const auto& u : units_) total += u->busy_ns();
    return total;
  });
  m->AddPolledCounter("ssd.units_gc_busy_ns", [this] {
    const SimTime now = sim_->Now();
    std::uint64_t total = 0;
    for (const auto& g : unit_gc_) total += g.Total(now);
    return total;
  });
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    Channel* ch = channels_[c].get();
    const std::string prefix = "ssd.chan" + std::to_string(c);
    m->AddPolledCounter(prefix + ".busy_ns",
                        [ch] { return ch->resource()->busy_ns(); });
    m->AddPolledCounter(prefix + ".gc_busy_ns", [this, ch] {
      return ch->gc_busy_ns(sim_->Now());
    });
  }
  m->AddGauge("ssd.wear_min", [this] {
    return static_cast<double>(flash_.MinEraseCount());
  });
  m->AddGauge("ssd.wear_max", [this] {
    return static_cast<double>(flash_.MaxEraseCount());
  });
  m->AddGauge("ssd.wear_spread", [this] {
    return static_cast<double>(flash_.MaxEraseCount() -
                               flash_.MinEraseCount());
  });
  m->AddGauge("ssd.bad_blocks", [this] {
    return static_cast<double>(flash_.bad_blocks());
  });
}

void Controller::ReleaseOp(Op* op) {
  op->read_cb = nullptr;
  op->op_cb = nullptr;
  op->ctx = trace::Ctx{};
  ops_.Release(op);
}

// --- Unit wait attribution ---------------------------------------------

void Controller::StartOp(Op* op, trace::Ctx ctx,
                         void (Controller::*phase)(Op*)) {
  op->start = sim_->Now();
  op->epoch = epoch_;
  op->ctx = ctx;
  op->retry = 0;
  op->lun = units_[op->unit].get();
  op->chan = channels_[op->src.channel].get();
  if (!sharded_) {
    op->sim = sim_;
    BeginUnitWait(op, phase);
    return;
  }
  // Controller decision made: pre-draw the stuck-busy script (the
  // injector is consume-once controller state) and ship the op across
  // the dispatch edge. Everything until EndPipeline runs on the
  // channel's shard.
  op->sim = router_->channel_sim(op->src.channel);
  op->stuck = StuckPenalty(op);
  auto cross = [this, op, phase] { BeginUnitWait(op, phase); };
  static_assert(sim::InplaceCallback::fits<decltype(cross)>());
  router_->Dispatch(op->src.channel, cross);
}

void Controller::BeginUnitWait(Op* op, void (Controller::*phase)(Op*)) {
  const SimTime now = op->sim->Now();
  op->wait_start = now;
  op->gc_mark = unit_gc_[op->unit].Total(now);
  auto grant = [this, op, phase] {
    OnUnitGrant(op);
    (this->*phase)(op);
  };
  static_assert(sim::InplaceCallback::fits<decltype(grant)>());
  op->lun->Acquire(grant);
}

void Controller::OnUnitGrant(Op* op) {
  const SimTime now = op->sim->Now();
  const std::uint64_t wait = now - op->wait_start;
  if (wait > 0) {
    // GC share of the wait = GC-held unit time that elapsed while this
    // op queued; exact since each unit is a capacity-1 resource.
    std::uint64_t gc_part = unit_gc_[op->unit].Total(now) - op->gc_mark;
    if (gc_part > wait) gc_part = wait;
    if (op->ctx.origin == trace::Origin::kHostRead) {
      gc_stall_read_by_chan_[op->src.channel] += gc_part;
    } else if (op->ctx.origin == trace::Origin::kHostWrite) {
      gc_stall_write_by_chan_[op->src.channel] += gc_part;
    }
    if (Traced(op)) {
      const std::uint32_t track = unit_tracks_[op->unit];
      const SimTime split = now - gc_part;
      if (split > op->wait_start) {
        TracerFor(op)->Record(trace::Stage::kQueueWait, op->ctx.origin,
                              op->ctx.span, op->ctx.parent, track,
                              op->wait_start, split, op->src.block);
      }
      if (gc_part > 0) {
        TracerFor(op)->Record(trace::Stage::kGcStall, op->ctx.origin,
                              op->ctx.span, op->ctx.parent, track, split,
                              now, op->src.block);
      }
    }
  }
  if (trace::IsGcOrigin(op->ctx.origin)) unit_gc_[op->unit].Enter(now);
}

void Controller::ExitUnit(Op* op) {
  // Runs on every completion path, stale epoch included (the unit
  // resource is likewise always released), so GC occupancy balances.
  if (trace::IsGcOrigin(op->ctx.origin)) {
    unit_gc_[op->unit].Exit(op->sim->Now());
  }
  op->lun->Release();
}

void Controller::EndPipeline(Op* op, void (Controller::*finish)(Op*)) {
  ExitUnit(op);
  if (!sharded_) {
    (this->*finish)(op);
    return;
  }
  auto cross = [this, op, finish] { (this->*finish)(op); };
  static_assert(sim::InplaceCallback::fits<decltype(cross)>());
  router_->Complete(op->src.channel, cross);
}

void Controller::RecordCellOp(Op* op, SimTime busy_ns) {
  if (!Traced(op)) return;
  const SimTime now = op->sim->Now();
  TracerFor(op)->Record(trace::Stage::kCellOp, op->ctx.origin,
                        op->ctx.span, op->ctx.parent,
                        unit_tracks_[op->unit], now, now + busy_ns,
                        op->src.block);
}

std::uint64_t Controller::GcStallReadNs() const {
  std::uint64_t total = 0;
  for (std::uint64_t v : gc_stall_read_by_chan_) total += v;
  for (const auto& ch : channels_) total += ch->gc_stall_read_ns();
  return total;
}

std::uint64_t Controller::GcStallWriteNs() const {
  std::uint64_t total = 0;
  for (std::uint64_t v : gc_stall_write_by_chan_) total += v;
  for (const auto& ch : channels_) total += ch->gc_stall_write_ns();
  return total;
}

// --- Read: [LUN: cmd + array read] then [channel: transfer out] --------

void Controller::ReadPage(const flash::Ppa& ppa, ReadCallback on_done,
                          trace::Ctx ctx) {
  Op* op = ops_.Acquire();
  op->src = ppa;
  op->unit = UnitIndexFor(ppa);
  op->read_cb = std::move(on_done);
  StartOp(op, ctx, &Controller::ReadArrayPhase);
}

void Controller::ReadArrayPhase(Op* op) {
  // Array read: page cells -> on-chip page register. LUN is busy; the
  // channel is not (command cycles folded into the array time).
  // Retry-ladder rungs re-sense with tuned reference voltages, each
  // adding an escalating multiple of the base array time.
  SimTime array_read = config_.timing.cmd_ns + config_.timing.read_ns;
  if (op->retry > 0) {
    array_read += static_cast<SimTime>(
        static_cast<double>(config_.timing.read_ns) *
        kRetryLatencyFactor * op->retry);
  }
  array_read += PenaltyOf(op);
  RecordCellOp(op, array_read);
  auto next = [this, op] { ReadTransferPhase(op); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->sim->Schedule(array_read, next);
}

void Controller::ReadTransferPhase(Op* op) {
  // Data transfer: page register -> controller over the shared bus.
  auto next = [this, op] { EndPipeline(op, &Controller::FinishRead); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->chan->Transfer(op->ctx, next);
}

void Controller::FinishRead(Op* op) {
  if (op->epoch != epoch_) {  // power-cycled away
    ReleaseOp(op);
    return;
  }
  flash::ReadOutcome outcome = flash::ReadOutcome::kClean;
  auto result = flash_.Read(op->src, &outcome, op->retry);
  // Per-attempt accounting: every rung is a real array read + transfer,
  // so energy is charged per attempt, like the flash pages_read count.
  const auto& t = config_.timing;
  flash_.mutable_counters()->Add(
      "energy_nj",
      t.read_energy_nj +
          t.transfer_nj_per_kib * config_.geometry.page_size_bytes / 1024);
  if (!result.ok() && result.status().IsDataLoss() &&
      op->retry < kReadRetrySteps) {
    ++op->retry;
    flash_.mutable_counters()->Increment("read_retries");
    if (TracedHealth(op)) {
      const SimTime now = sim_->Now();
      tracer_->Record(trace::Stage::kCellOp, op->ctx.origin, op->ctx.span,
                      op->ctx.parent, health_track_, now, now + 1,
                      op->src.block);
    }
    RetryRead(op);
    return;
  }
  const SimTime latency = sim_->Now() - op->start;
  read_latency_.Record(latency);
  if (metrics_ != nullptr) {
    metrics_->Record(m_read_lat_, latency);
    if (op->retry > 0) metrics_->Record(m_retry_lat_, latency);
  }
  if (outcome == flash::ReadOutcome::kCorrectable) NoteCorrectable(op->src);
  ReadCallback cb = std::move(op->read_cb);
  ReleaseOp(op);
  cb(std::move(result));
}

void Controller::RetryRead(Op* op) {
  // Back into the unit's queue: the ladder competes with other work
  // like any op, but keeps its original start time so the final
  // latency shows the whole tax. Sharded mode re-crosses the dispatch
  // edge — the retry is a fresh firmware command, priced like one.
  if (!sharded_) {
    BeginUnitWait(op, &Controller::ReadArrayPhase);
    return;
  }
  op->stuck = StuckPenalty(op);
  auto cross = [this, op] {
    BeginUnitWait(op, &Controller::ReadArrayPhase);
  };
  static_assert(sim::InplaceCallback::fits<decltype(cross)>());
  router_->Dispatch(op->src.channel, cross);
}

void Controller::NoteCorrectable(const flash::Ppa& ppa) {
  const std::uint32_t threshold =
      config_.reliability.refresh_correctable_threshold;
  if (threshold == 0) return;
  const std::uint64_t key = ppa.Block().Flatten(config_.geometry);
  const std::uint32_t count = ++correctable_counts_[key];
  if (count < threshold) return;
  correctable_counts_.erase(key);
  flash_.mutable_counters()->Increment("refresh_triggers");
  if (refresh_) refresh_(ppa.Block());
}

SimTime Controller::StuckPenalty(const Op* op) {
  if (injector_ == nullptr) return 0;
  return injector_->StuckBusyPenalty(op->src.GlobalLun(config_.geometry));
}

// --- Program: [channel: transfer in] then [LUN: array program] ---------

void Controller::ProgramPage(const flash::Ppa& ppa,
                             const flash::PageData& data,
                             OpCallback on_done, trace::Ctx ctx) {
  Op* op = ops_.Acquire();
  op->src = ppa;
  op->data = data;
  op->unit = UnitIndexFor(ppa);
  op->op_cb = std::move(on_done);
  StartOp(op, ctx, &Controller::ProgramTransferPhase);
}

void Controller::ProgramTransferPhase(Op* op) {
  // Data transfer: controller -> page register (bus busy, array idle).
  auto next = [this, op] { ProgramArrayPhase(op); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->chan->Transfer(op->ctx, next);
}

void Controller::ProgramArrayPhase(Op* op) {
  // Array program: page register -> cells (LUN busy, bus free).
  const SimTime busy = config_.timing.program_ns + PenaltyOf(op);
  RecordCellOp(op, busy);
  auto next = [this, op] { EndPipeline(op, &Controller::FinishProgram); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->sim->Schedule(busy, next);
}

void Controller::FinishProgram(Op* op) {
  if (op->epoch != epoch_) {  // power-cycled away
    ReleaseOp(op);
    return;
  }
  Status st = flash_.Program(op->src, op->data);
  const SimTime latency = sim_->Now() - op->start;
  program_latency_.Record(latency);
  if (metrics_ != nullptr) metrics_->Record(m_program_lat_, latency);
  const auto& t = config_.timing;
  flash_.mutable_counters()->Add(
      "energy_nj",
      t.program_energy_nj +
          t.transfer_nj_per_kib * config_.geometry.page_size_bytes / 1024);
  OpCallback cb = std::move(op->op_cb);
  ReleaseOp(op);
  cb(std::move(st));
}

// --- Copyback: [channel: cmd] then in-die [array read + program] -------

void Controller::CopybackPage(const flash::Ppa& src, const flash::Ppa& dst,
                              OpCallback on_done, trace::Ctx ctx) {
  if (src.GlobalLun(config_.geometry) != dst.GlobalLun(config_.geometry) ||
      src.plane != dst.plane) {
    sim_->Schedule(0, [on_done = std::move(on_done)]() {
      on_done(Status::InvalidArgument(
          "copyback requires same plane of same LUN"));
    });
    return;
  }
  Op* op = ops_.Acquire();
  op->src = src;
  op->dst = dst;
  op->unit = UnitIndexFor(src);
  op->op_cb = std::move(on_done);
  // Command cycles on the bus, then array read + array program back to
  // back inside the die; no data transfer.
  StartOp(op, ctx, &Controller::CopybackCommandPhase);
}

void Controller::CopybackCommandPhase(Op* op) {
  auto next = [this, op] { CopybackBusyPhase(op); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->chan->Command(op->ctx, next);
}

void Controller::CopybackBusyPhase(Op* op) {
  const SimTime busy =
      config_.timing.read_ns + config_.timing.program_ns + PenaltyOf(op);
  RecordCellOp(op, busy);
  auto next = [this, op] { EndPipeline(op, &Controller::FinishCopyback); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->sim->Schedule(busy, next);
}

void Controller::FinishCopyback(Op* op) {
  if (op->epoch != epoch_) {  // power-cycled away
    ReleaseOp(op);
    return;
  }
  auto data = flash_.Peek(op->src);  // in-die move: no ECC path
  Status st = data.ok() ? flash_.Program(op->dst, *data) : data.status();
  const SimTime latency = sim_->Now() - op->start;
  program_latency_.Record(latency);
  flash_.mutable_counters()->Increment("copybacks");
  if (metrics_ != nullptr) metrics_->Record(m_program_lat_, latency);
  flash_.mutable_counters()->Add(
      "energy_nj",
      config_.timing.read_energy_nj + config_.timing.program_energy_nj);
  OpCallback cb = std::move(op->op_cb);
  ReleaseOp(op);
  cb(std::move(st));
}

// --- Erase: [channel: cmd] then [LUN: block erase] ---------------------

void Controller::EraseBlock(const flash::BlockAddr& addr,
                            OpCallback on_done, trace::Ctx ctx) {
  Op* op = ops_.Acquire();
  op->src = flash::Ppa{addr.channel, addr.lun, addr.plane, addr.block, 0};
  op->unit = UnitIndexFor(op->src);
  op->op_cb = std::move(on_done);
  StartOp(op, ctx, &Controller::EraseCommandPhase);
}

void Controller::EraseCommandPhase(Op* op) {
  auto next = [this, op] { EraseBusyPhase(op); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->chan->Command(op->ctx, next);
}

void Controller::EraseBusyPhase(Op* op) {
  const SimTime busy = config_.timing.erase_ns + PenaltyOf(op);
  RecordCellOp(op, busy);
  auto next = [this, op] { EndPipeline(op, &Controller::FinishErase); };
  static_assert(sim::InplaceCallback::fits<decltype(next)>());
  op->sim->Schedule(busy, next);
}

void Controller::FinishErase(Op* op) {
  if (op->epoch != epoch_) {  // power-cycled away
    ReleaseOp(op);
    return;
  }
  Status st = flash_.Erase(op->src.Block());
  const SimTime latency = sim_->Now() - op->start;
  erase_latency_.Record(latency);
  if (metrics_ != nullptr) metrics_->Record(m_erase_lat_, latency);
  if (st.IsDataLoss()) {
    // The erase retired the block: burn a spare credit instead of
    // silently shrinking over-provisioning. A LUN out of credits can
    // no longer replace capacity, so the device fails safe: read-only.
    if (TracedHealth(op)) {
      const SimTime now = sim_->Now();
      tracer_->Record(trace::Stage::kCellOp, op->ctx.origin, op->ctx.span,
                      op->ctx.parent, health_track_, now, now + 1,
                      op->src.block);
    }
    const std::uint32_t gl = op->src.GlobalLun(config_.geometry);
    if (gl < spares_.size()) {
      if (spares_[gl] > 0) --spares_[gl];
      if (spares_[gl] == 0) read_only_ = true;
    }
  } else if (st.ok() && !correctable_counts_.empty()) {
    // A fresh erase resets the block's correctable-read history.
    correctable_counts_.erase(op->src.Block().Flatten(config_.geometry));
  }
  flash_.mutable_counters()->Add("energy_nj",
                                 config_.timing.erase_energy_nj);
  OpCallback cb = std::move(op->op_cb);
  ReleaseOp(op);
  cb(std::move(st));
}

}  // namespace postblock::ssd
