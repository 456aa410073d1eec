#ifndef POSTBLOCK_SSD_DEVICE_H_
#define POSTBLOCK_SSD_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "blocklayer/block_device.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "ftl/append_ftl.h"
#include "ftl/ftl.h"
#include "ftl/page_ftl.h"
#include "metrics/metrics.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/controller.h"
#include "ssd/write_buffer.h"
#include "trace/trace.h"
#include "trace/tracer.h"

namespace postblock::ssd {

/// Device::Caps()'s answer: what only the device knows about itself,
/// not derivable from Supports().
struct DeviceCaps {
  /// Device-side mapping-table DRAM right now, in bytes. The crossover
  /// study's third axis: a full page-map FTL pays 8 B per logical page;
  /// an append-mode device pays per-block bookkeeping only.
  std::uint64_t mapping_table_bytes = 0;
};

/// A complete simulated SSD exposed through the legacy block device
/// interface: controller + FTL (per Config::ftl) + optional safe write
/// cache. This is the device every myth bench and the "conservative"
/// DB wiring talk to.
class Device : public blocklayer::BlockDevice {
 public:
  Device(sim::Simulator* sim, const Config& config);

  /// Sharded mode: the firmware (this object, the FTL, the write
  /// buffer, all latency/counter state) lives on the router's
  /// controller shard; each channel's bus and LUN resources live on
  /// that channel's shard, with GC relocation traffic riding the same
  /// dispatch/completion edges as host ops. Submit() must be
  /// called from controller-shard event context (or before the engine
  /// runs); introspection accessors are safe between engine runs. The
  /// committed schedule is byte-identical at every engine worker count.
  Device(ShardRouter* router, const Config& config,
         const std::vector<trace::Tracer*>& channel_tracers = {});

  ~Device() override = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- BlockDevice -------------------------------------------------
  std::uint64_t num_blocks() const override { return ftl_->user_pages(); }
  std::uint32_t block_bytes() const override {
    return config_.geometry.page_size_bytes;
  }
  /// Routes the op once: admissible block ops go through admission and
  /// page-op fanout; everything else completes or executes here.
  void Submit(blocklayer::IoRequest request) override;
  /// One doorbell ring admitting the whole batch: the fixed controller
  /// overhead is paid once, then commands are fetched from the SQ at
  /// kDoorbellCmdNs intervals — admission is pipelined, not serial.
  void SubmitBatch(std::vector<blocklayer::IoRequest>& batch) override;
  const Counters& counters() const { return counters_; }

  /// Block ops on every FTL but vision-append, which has no logical
  /// address space; atomic write groups on the page-mapping FTL (its
  /// commit marker); the nameless vocabulary (write/read/free) only
  /// under FtlKind::kVisionAppend, whose names are physical addresses;
  /// flush and hints everywhere. Nothing is emulated: an op answered
  /// false here completes inline with a typed Unimplemented, before
  /// admission.
  bool Supports(blocklayer::IoOp op) const override;
  /// Identify: the live mapping-table DRAM.
  DeviceCaps Caps() const;
  /// Host migration handler for named pages (old name -> new name),
  /// handed straight to the vision-append FTL, which fires it as each
  /// move lands. Dropped on any other FTL: it issues no names to move.
  void SetMigrationHandler(host::MigrationHandler handler) override;

  // --- Introspection ------------------------------------------------
  /// The firmware's event loop (the controller shard's in sharded mode).
  sim::Simulator* sim() { return sim_; }
  /// Non-null iff this device runs on a sharded engine.
  ShardRouter* router() { return router_; }
  const Config& config() const { return config_; }
  Controller* controller() { return controller_.get(); }
  ftl::Ftl* ftl() { return ftl_.get(); }
  /// Non-null when Config::ftl is kPageMap (tests inspect its map;
  /// hosts submit atomic groups through Submit).
  ftl::PageFtl* page_ftl() { return page_ftl_; }
  /// Non-null when Config::ftl is kVisionAppend (host-managed physical
  /// append; the block vocabulary is refused).
  ftl::AppendFtl* append_ftl() { return append_ftl_; }
  /// Control-path (admin) enumeration of live host-managed pages with
  /// their OOB owner stamps — the post-crash scan hosts rebuild their
  /// mapping from. Empty unless running kVisionAppend.
  std::vector<ftl::AppendFtl::LiveName> LiveNames() const {
    return append_ftl_ != nullptr
               ? append_ftl_->LiveNames()
               : std::vector<ftl::AppendFtl::LiveName>{};
  }
  WriteBuffer* write_buffer() { return write_buffer_.get(); }

  /// Host-visible latency distributions.
  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& write_latency() const { return write_latency_; }

  double WriteAmplification() const { return ftl_->WriteAmplification(); }

  /// Simulates power loss + reboot. Un-drained buffered writes vanish
  /// unless the buffer is battery-backed; the FTL rebuilds its mapping
  /// from OOB metadata. Requests in admission or in flight die with the
  /// power: their callbacks never fire. Supported for the page-mapping
  /// and vision-append FTLs.
  Status PowerCycle();

  /// Per-IO record accounting (tests): records ever allocated and
  /// records currently free. Equal whenever no request is in flight, and
  /// right after PowerCycle, which reclaims every record.
  std::size_t io_records_allocated() const {
    return io_records_.allocated();
  }
  std::size_t io_records_free() const { return io_records_.free(); }

 private:
  /// One host request from admission to completion, pooled. Every
  /// callback on the path captures {this, record*} plus the page index
  /// and the generation the page op was issued under: PowerCycle
  /// reclaims every record and bumps its generation, so a completion
  /// that outlives the cut can never complete a recycled record.
  struct IoRecord {
    blocklayer::IoRequest request;
    /// status is the first page error; tokens keeps its capacity.
    blocklayer::IoResult result;
    std::uint32_t remaining = 0;  // page ops still outstanding
    std::uint32_t gen = 0;
    /// This device minted the request's span (no layer above is
    /// tracing), so it records the end-to-end kIo span.
    bool root = false;
    SimTime submit_t = 0;  // when Submit() saw it (kIo start)
    SimTime start = 0;     // admission done: latency starts here
  };

  /// Fans the admitted request out into page ops.
  void SubmitPageOps(IoRecord* rec);
  /// One page op of `rec` finished; the last one completes the request.
  void OnPageDone(IoRecord* rec, std::uint32_t gen, std::uint32_t index,
                  Status st, std::uint64_t token);

  /// Common admission path: validation, trace, then page-op fanout
  /// after controller_overhead_ns + admit_delay (the extra delay is the
  /// batched doorbell's per-command fetch offset).
  void Admit(blocklayer::IoRequest request, SimTime admit_delay);

  /// Takes every op that does not go through admission (hints, the
  /// extended ops, and a refused block op); false leaves `request` to
  /// Admit.
  bool RouteUnadmitted(blocklayer::IoRequest& request);
  /// The extended ops, each called only on the FTL that implements it:
  /// atomic groups on the page map, the nameless ops on vision-append.
  void SubmitAtomicGroup(blocklayer::IoRequest request);
  void SubmitNameless(blocklayer::IoRequest request);

  bool Traced() const { return tracer_ != nullptr && tracer_->enabled(); }

  /// Shared ctor body (FTL, write buffer, metrics, trace track).
  void Init();

  sim::Simulator* sim_;
  ShardRouter* router_ = nullptr;  // non-null iff sharded mode
  Config config_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<ftl::Ftl> ftl_;
  ftl::PageFtl* page_ftl_ = nullptr;      // borrowed view into ftl_
  ftl::AppendFtl* append_ftl_ = nullptr;  // borrowed view into ftl_
  std::unique_ptr<WriteBuffer> write_buffer_;

  Histogram read_latency_;
  Histogram write_latency_;
  Counters counters_;

  sim::RecordPool<IoRecord> io_records_;

  trace::Tracer* tracer_ = nullptr;  // == config_.tracer
  std::uint32_t dev_track_ = 0;      // "ssd-device" (host pid)

  // Latency windows; counted events are polled from counters_.
  metrics::MetricRegistry* metrics_ = nullptr;  // == config_.metrics
  metrics::Id m_read_lat_ = metrics::kInvalidId;
  metrics::Id m_write_lat_ = metrics::kInvalidId;
};

/// Builds the FTL named by `config.ftl` over `controller`.
std::unique_ptr<ftl::Ftl> MakeFtl(Controller* controller);

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_DEVICE_H_
