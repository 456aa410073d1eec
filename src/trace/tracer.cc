#include "trace/tracer.h"

namespace postblock::trace {

namespace {
std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

Tracer::Tracer(std::size_t capacity) : mask_(RoundUpPow2(capacity) - 1) {}

void Tracer::set_enabled(bool on) {
  if (on && ring_.empty()) {
    ring_.resize(capacity());
    breakdown_.Allocate();
  }
  enabled_ = on;
}

std::uint32_t Tracer::RegisterTrack(std::uint32_t pid,
                                    const std::string& name) {
  std::uint32_t next_tid = 1;
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].pid != pid) continue;
    if (tracks_[i].name == name) return i;
    ++next_tid;
  }
  TrackInfo info;
  info.pid = pid;
  info.tid = next_tid;
  info.name = name;
  tracks_.push_back(std::move(info));
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

}  // namespace postblock::trace
