#include "ssd/sharded_device.h"

#include <utility>

#include "blocklayer/request.h"
#include "common/check.h"

namespace postblock::ssd {

namespace {

inline std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

inline std::uint64_t SplitMix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t HistDigest(std::uint64_t h, const Histogram& hist) {
  h = Mix(h, hist.count());
  h = Mix(h, static_cast<std::uint64_t>(hist.Sum()));
  h = Mix(h, hist.min());
  h = Mix(h, hist.max());
  h = Mix(h, hist.P50());
  h = Mix(h, hist.P99());
  return h;
}

std::uint64_t CountersDigest(std::uint64_t h, const Counters& counters) {
  for (const auto& [name, value] : counters.All()) {
    for (char c : name) h = Mix(h, static_cast<std::uint64_t>(c));
    h = Mix(h, value);
  }
  return h;
}

std::uint64_t RingDigest(std::uint64_t h, const trace::Tracer& t) {
  h = Mix(h, t.total_recorded());
  t.ForEach([&h](const trace::TraceEvent& e) {
    h = Mix(h, e.start);
    h = Mix(h, e.end);
    h = Mix(h, e.span);
    h = Mix(h, e.arg);
    h = Mix(h, (static_cast<std::uint64_t>(e.track) << 16) |
                   (static_cast<std::uint64_t>(e.stage) << 8) |
                   static_cast<std::uint64_t>(e.origin));
  });
  return h;
}

}  // namespace

ShardedDeviceSim::ShardedDeviceSim(const Config& config,
                                   const ShardedDeviceRun& run)
    : config_(config),
      run_(run),
      plan_(ShardPlan::FromConfig(config)),
      rng_(run.seed) {
  sim::ShardedConfig ec;
  ec.shards = plan_.num_shards;
  ec.workers = run_.workers;
  ec.lookahead = plan_.Lookahead();
  engine_ = std::make_unique<sim::ShardedEngine>(ec);
  router_ = std::make_unique<ShardRouter>(engine_.get(), plan_);
  std::vector<trace::Tracer*> channel_rings;
  if (run_.tracing) {
    // One ring per channel shard plus the controller's shared ring;
    // modest capacity — the digest covers retained events + totals.
    rings_.reserve(config_.geometry.channels + 1);
    for (std::uint32_t c = 0; c <= config_.geometry.channels; ++c) {
      rings_.push_back(std::make_unique<trace::Tracer>(1 << 12));
      rings_.back()->set_enabled(true);
    }
    config_.tracer = rings_.back().get();
    for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
      channel_rings.push_back(rings_[c].get());
    }
  }
  device_ = std::make_unique<Device>(router_.get(), config_,
                                     channel_rings);
  const std::uint64_t user = device_->num_blocks();
  fill_pages_ = static_cast<std::uint64_t>(
      static_cast<double>(user) * run_.fill_fraction);
  if (fill_pages_ == 0) fill_pages_ = 1;
  if (fill_pages_ > user) fill_pages_ = user;
  // Kick off the closed loop as the first controller-shard event.
  router_->controller_sim()->Schedule(0, [this] { Pump(); });
}

void ShardedDeviceSim::Pump() {
  while (inflight_ < run_.queue_depth &&
         (fill_issued_ < fill_pages_ || main_issued_ < run_.total_ios)) {
    Issue();
  }
}

void ShardedDeviceSim::Issue() {
  blocklayer::IoRequest req;
  if (fill_issued_ < fill_pages_) {
    // Precondition: sequential fill so the main phase overwrites live
    // data (GC relocation traffic crosses the seam, not just host IO).
    req.op = blocklayer::IoOp::kWrite;
    req.lba = fill_issued_++;
    req.tokens.assign(1, token_++);
  } else {
    ++main_issued_;
    const bool write =
        SplitMix(rng_) % 100 < run_.write_percent;
    const Lba lba = SplitMix(rng_) % fill_pages_;
    if (write) {
      req.op = blocklayer::IoOp::kWrite;
      req.lba = lba;
      req.tokens.assign(1, token_++);
    } else {
      req.op = blocklayer::IoOp::kRead;
      req.lba = lba;
    }
  }
  req.nblocks = 1;
  ++inflight_;
  req.on_complete = [this](const blocklayer::IoResult& res) {
    OnDone(res.status);
  };
  device_->Submit(std::move(req));
}

void ShardedDeviceSim::OnDone(const Status& st) {
  --inflight_;
  ++done_;
  if (!st.ok()) ++errors_;
  Pump();
}

SimTime ShardedDeviceSim::Run() {
  const SimTime end = engine_->Run();
  PB_CHECK(inflight_ == 0, "sharded device drained with host IO in flight");
  PB_CHECK(done_ == fill_pages_ + run_.total_ios,
           "sharded device drained before the host script completed");
  return end;
}

std::uint64_t ShardedDeviceSim::ModelFingerprint() const {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  h = CountersDigest(h, device_->counters());
  h = CountersDigest(h, device_->controller()->counters());
  h = HistDigest(h, device_->read_latency());
  h = HistDigest(h, device_->write_latency());
  h = HistDigest(h, device_->controller()->read_latency());
  h = HistDigest(h, device_->controller()->program_latency());
  h = HistDigest(h, device_->controller()->erase_latency());
  double wa = device_->WriteAmplification();
  std::uint64_t wa_bits = 0;
  static_assert(sizeof(wa) == sizeof(wa_bits));
  __builtin_memcpy(&wa_bits, &wa, sizeof(wa_bits));
  h = Mix(h, wa_bits);
  h = Mix(h, device_->controller()->GcStallReadNs());
  h = Mix(h, device_->controller()->GcStallWriteNs());
  h = Mix(h, device_->controller()->read_retries());
  h = Mix(h, device_->controller()->blocks_retired());
  h = Mix(h, done_);
  h = Mix(h, errors_);
  h = Mix(h, engine_->Now());
  for (const auto& ring : rings_) h = RingDigest(h, *ring);
  return h;
}

std::uint64_t ShardedDeviceSim::CombinedFingerprint() const {
  return Mix(ModelFingerprint(), engine_->Fingerprint());
}

}  // namespace postblock::ssd
