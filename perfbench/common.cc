#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

namespace perfbench {

namespace pb = postblock;

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t CpuNs() {
  struct timespec ts {};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double ReferenceNsPerStep() {
  constexpr std::size_t kTable = std::size_t{1} << 19;  // 4 MiB
  constexpr int kSteps = 100'000;
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kTable);
    pb::Rng rng(0x5eed);
    for (std::uint64_t& v : t) v = rng.Next();
    return t;
  }();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      heap;
  for (std::size_t i = 0; i < 4096; ++i) heap.push(table[i] & 0xffff);
  const std::uint64_t c0 = CpuNs();
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    std::uint64_t& x =
        table[((t * 0x9e3779b97f4a7c15ull) >> 40) & (kTable - 1)];
    x ^= t;
    heap.push(t + (x & 1023) + 1);
  }
  return static_cast<double>(CpuNs() - c0) / kSteps;
}

ScaledCpuClock::ScaledCpuClock()
    : ref_ns_(ReferenceNsPerStep()), start_ns_(CpuNs()) {}

double ScaledCpuClock::Lap() {
  const std::uint64_t end = CpuNs();
  const double ref_end = ReferenceNsPerStep();
  const double s = static_cast<double>(end - start_ns_) / 1e9 *
                   kNominalRefNs / (0.5 * (ref_ns_ + ref_end));
  ref_ns_ = ref_end;
  start_ns_ = CpuNs();
  return s;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit:
      return "submit";
    case SpanKind::kRun:
      return "run";
    case SpanKind::kDbTxn:
      return "db_txn";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kShardedRun:
      return "sharded_run";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void SpanLog::Start(std::size_t capacity) {
  *this = SpanLog();
  kept_.reserve(capacity);
  on_ = true;
}

std::vector<std::uint64_t> SpanLog::Durations(SpanKind kind) const {
  std::vector<std::uint64_t> out;
  for (const Span& s : kept_) {
    if (s.kind == kind) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind\tstart_ns\tend_ns\n");
  for (const Span& s : kept_) {
    std::fprintf(f, "%s\t%llu\t%llu\n", SpanName(s.kind),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double IqrShare(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return 0;
  std::sort(v.begin(), v.end());
  // statistics.quantiles(v, n=4), method="exclusive".
  auto q = [&](int i) {
    const double m = static_cast<double>(n + 1) * i / 4.0;
    const std::size_t j = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::floor(m)), 1, n - 1);
    const double delta = m - static_cast<double>(j);
    return v[j - 1] + (v[j] - v[j - 1]) * delta;
  };
  const double med = Median(v);
  return med != 0 ? (q(3) - q(1)) / std::fabs(med) : 0;
}

std::uint64_t Percentile(std::vector<std::uint64_t>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(p / 100.0 * samples->size());
  const std::size_t idx =
      rank < 1 ? 0 : std::min(samples->size(), static_cast<std::size_t>(rank)) - 1;
  return (*samples)[idx];
}

Digest& Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::Add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Add(bits);
}

Digest& Digest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  return Add(static_cast<std::uint64_t>(s.size()));
}

Digest& Digest::Add(const pb::Counters& counters) {
  for (const auto& [name, value] : counters.All()) {
    Add(name);
    Add(value);
  }
  return *this;
}

Digest& Digest::Add(const pb::Histogram& hist) {
  return Add(hist.count())
      .Add(hist.Sum())
      .Add(hist.min())
      .Add(hist.max())
      .Add(hist.P50())
      .Add(hist.P99());
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// --- ClosedLoop -------------------------------------------------------------

ClosedLoop::ClosedLoop(pb::sim::Simulator* sim, std::uint64_t* next_token,
                       bool record_latency)
    : sim_(sim), next_token_(next_token), record_latency_(record_latency) {}

void ClosedLoop::Add(const Client& client) {
  auto s = std::make_unique<State>();
  s->c = client;
  s->rng = pb::Rng(client.seed);
  s->slots.resize(client.queue_depth);
  for (Slot& slot : s->slots) {
    slot.loop = this;
    slot.state = s.get();
  }
  const void* space = client.shadow != nullptr
                          ? static_cast<const void*>(client.shadow)
                          : static_cast<const void*>(client.device);
  s->busy = &busy_[space];
  if (s->busy->size() < client.lba_count) s->busy->resize(client.lba_count, 0);
  target_ += client.quota;
  states_.push_back(std::move(s));
}

std::pair<bool, Lba> ClosedLoop::Draw(State* s) {
  const Client& c = s->c;
  const std::vector<std::uint8_t>& busy = *s->busy;
  for (;;) {
    bool write = false;
    Lba lba = 0;
    if (c.script != nullptr) {
      const auto& op = (*c.script)[s->seq_pos++ % c.script->size()];
      write = op.first;
      lba = op.second;
    } else {
      write = c.write_fraction > 0 && s->rng.Bernoulli(c.write_fraction);
      lba = c.sequential ? s->seq_pos++ % c.lba_count
                         : s->rng.Uniform(c.lba_count);
    }
    const std::uint8_t b = busy[lba];
    if (b == 0 || (!write && b != 0xff)) return {write, lba};
  }
}

void ClosedLoop::Run() {
  if (record_latency_) latencies_.reserve(latencies_.size() + target_);
  for (auto& s : states_) {
    for (Slot& slot : s->slots) Issue(&slot);
  }
  RunUntil(sim_, [this] { return completed_ >= target_; });
}

void ClosedLoop::Issue(Slot* slot) {
  State* s = slot->state;
  if (s->issued >= s->c.quota) return;
  ++s->issued;
  const auto [write, lba] = Draw(s);
  std::uint8_t& b = (*s->busy)[lba];
  b = write ? 0xff : static_cast<std::uint8_t>(b + 1);

  pb::blocklayer::IoRequest req;
  req.op = write ? pb::blocklayer::IoOp::kWrite : pb::blocklayer::IoOp::kRead;
  req.lba = lba;
  req.nblocks = 1;
  slot->lba = lba;
  slot->write = write;
  slot->token = write ? ++*next_token_ : 0;
  if (write) req.tokens.assign(1, slot->token);
  slot->submitted = sim_->Now();
  req.on_complete = [slot](const pb::blocklayer::IoResult& r) {
    slot->loop->OnDone(slot, r);
  };
  ScopedSpan span(SpanKind::kSubmit);
  s->c.device->Submit(std::move(req));
}

void ClosedLoop::OnDone(Slot* slot, const pb::blocklayer::IoResult& r) {
  State* s = slot->state;
  std::uint8_t& b = (*s->busy)[slot->lba];
  b = slot->write ? 0 : static_cast<std::uint8_t>(b - 1);
  ++completed_;
  if (record_latency_) latencies_.push_back(sim_->Now() - slot->submitted);
  bool ok = r.status.ok();
  if (ok && s->c.shadow != nullptr) {
    std::uint64_t& expect = (*s->c.shadow)[slot->lba];
    if (slot->write) {
      expect = slot->token;
    } else if (expect != 0) {
      ok = r.tokens.size() == 1 && r.tokens[0] == expect;
    }
  }
  if (!ok) ++failed_;
  Issue(slot);
}

std::uint64_t FillSequential(pb::sim::Simulator* sim,
                             pb::blocklayer::BlockDevice* device,
                             std::uint64_t blocks,
                             std::vector<std::uint64_t>* shadow,
                             std::uint64_t* next_token) {
  ClosedLoop loop(sim, next_token, /*record_latency=*/false);
  Client c;
  c.device = device;
  c.queue_depth = 32;
  c.quota = blocks;
  c.write_fraction = 1.0;
  c.sequential = true;
  c.lba_count = blocks;
  c.shadow = shadow;
  loop.Add(c);
  loop.Run();
  sim->Run();  // drain background work
  return loop.failed();
}

std::uint64_t AgeRandom(pb::sim::Simulator* sim,
                        pb::blocklayer::BlockDevice* device,
                        std::uint64_t blocks, std::uint64_t writes,
                        std::uint64_t seed, std::vector<std::uint64_t>* shadow,
                        std::uint64_t* next_token) {
  ClosedLoop loop(sim, next_token, /*record_latency=*/false);
  Client c;
  c.device = device;
  c.queue_depth = 32;
  c.quota = writes;
  c.write_fraction = 1.0;
  c.lba_count = blocks;
  c.seed = seed;
  c.shadow = shadow;
  loop.Add(c);
  loop.Run();
  sim->Run();
  return loop.failed();
}

void SetLatency(RepResult* r, std::vector<std::uint64_t>* samples_ns) {
  r->lat_samples = samples_ns->size();
  double sum = 0;
  for (std::uint64_t v : *samples_ns) sum += static_cast<double>(v);
  r->sim_lat_us_mean =
      samples_ns->empty() ? 0 : sum / 1e3 / static_cast<double>(r->lat_samples);
  r->sim_lat_us_p50 = static_cast<double>(Percentile(samples_ns, 50)) / 1e3;
  r->sim_lat_us_p99 = static_cast<double>(Percentile(samples_ns, 99)) / 1e3;
}

}  // namespace perfbench
