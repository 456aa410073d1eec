#include "core/nameless.h"

#include <utility>

namespace postblock::core {

NamelessStore::NamelessStore(sim::Simulator* sim, host::HostInterface* dev)
    : sim_(sim), dev_(dev), supported_(dev->Caps().nameless) {
  dev_->SetMigrationHandler([this](Name old_name, Name new_name) {
    OnMigration(old_name, new_name);
  });
}

void NamelessStore::Write(std::uint64_t token, WriteCb cb,
                          trace::Ctx ctx) {
  counters_.Increment("writes");
  blocklayer::IoRequest request = blocklayer::IoRequest::NamelessWrite(
      token,
      blocklayer::IoCallback(
          [this, cb = std::move(cb)](const blocklayer::IoResult& res) {
            if (!res.status.ok()) {
              cb(res.status);
              return;
            }
            if (res.tokens.empty()) {
              cb(Status::Internal("nameless write returned no name"));
              return;
            }
            names_.insert(res.tokens[0]);
            cb(res.tokens[0]);
          }));
  request.span = ctx.span;
  dev_->Submit(std::move(request));
}

void NamelessStore::Read(Name name, ReadCb cb, trace::Ctx ctx) {
  if (names_.find(name) == names_.end()) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::NotFound("unknown name"));
    });
    return;
  }
  counters_.Increment("reads");
  blocklayer::IoRequest request = blocklayer::IoRequest::NamelessRead(
      name, blocklayer::IoCallback(
                [cb = std::move(cb)](const blocklayer::IoResult& res) {
                  if (!res.status.ok()) {
                    cb(res.status);
                    return;
                  }
                  cb(res.tokens.empty() ? 0 : res.tokens[0]);
                }));
  request.span = ctx.span;
  dev_->Submit(std::move(request));
}

void NamelessStore::Free(Name name, StatusCb cb, trace::Ctx ctx) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::NotFound("unknown name"));
    });
    return;
  }
  names_.erase(it);
  counters_.Increment("frees");
  blocklayer::IoRequest request = blocklayer::IoRequest::NamelessFree(
      name, blocklayer::IoCallback(
                [cb = std::move(cb)](const blocklayer::IoResult& res) {
                  cb(res.status);
                }));
  request.span = ctx.span;
  dev_->Submit(std::move(request));
}

void NamelessStore::OnMigration(Name old_name, Name new_name) {
  if (names_.erase(old_name) == 0) return;  // not ours / stale
  names_.insert(new_name);
  counters_.Increment("migrations");
  if (handler_) handler_(old_name, new_name);
}

}  // namespace postblock::core
