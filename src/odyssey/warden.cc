#include "src/odyssey/warden.h"

#include <utility>

#include "src/odyssey/viceroy.h"
#include "src/util/check.h"

namespace odyssey {

Warden::Warden(std::string data_type) : data_type_(std::move(data_type)) {}

Warden::~Warden() = default;

void Warden::Fetch(size_t request_bytes, size_t reply_bytes,
                   odsim::SimDuration server_time, odsim::EventFn on_done) {
  FetchWithStatus(request_bytes, reply_bytes, server_time,
                  [on_done = std::move(on_done)](odnet::RpcStatus) {
                    if (on_done) {
                      on_done();
                    }
                  });
}

void Warden::FetchKeyed(const std::string& key, size_t request_bytes,
                        size_t reply_bytes, odsim::SimDuration server_time,
                        OutcomeFn on_done) {
  OD_CHECK_MSG(viceroy_ != nullptr, "warden used before registration");
  KeyedId id = keyed_.Acquire();
  KeyedFetch& fetch = keyed_.Get(id);
  fetch.key = key;
  fetch.server_time = server_time;
  fetch.on_done = std::move(on_done);
  viceroy_->rpc().CallWithOutcome(
      request_bytes, reply_bytes,
      [this, id](std::function<void(bool)> served) {
        SubmitKeyed(id, std::move(served));
      },
      [this, id](odnet::RpcStatus status) { FinishKeyed(id, status); });
}

void Warden::SubmitKeyed(KeyedId id, std::function<void(bool)> served) {
  // The RPC computes only for a call it has not settled, and the record
  // lives until it settles.
  KeyedFetch& fetch = keyed_.Get(id);
  fetch.served = std::move(served);
  server_->SubmitKeyed(fetch.key, fetch.server_time,
                       [this, id](odserve::ServeOutcome outcome) {
                         KeyedFetch* fetch = keyed_.Find(id);
                         if (fetch == nullptr) {
                           return;  // The call settled while the server worked.
                         }
                         fetch->serve = outcome;
                         std::function<void(bool)> served = std::move(fetch->served);
                         served(outcome != odserve::ServeOutcome::kRejected);
                       });
}

void Warden::FinishKeyed(KeyedId id, odnet::RpcStatus status) {
  KeyedFetch& fetch = keyed_.Get(id);
  FetchOutcome outcome{status, fetch.serve};
  OutcomeFn on_done = std::move(fetch.on_done);
  keyed_.Release(id);
  if (status == odnet::RpcStatus::kRejected) {
    ++rejected_fetches_;
    viceroy_->NotifyAdmissionReject();
  } else if (status != odnet::RpcStatus::kOk) {
    ++failed_fetches_;
  } else {
    if (outcome.serve == odserve::ServeOutcome::kCacheHit) {
      ++cache_hits_;
    }
    viceroy_->NotifyFetchOk();
  }
  if (on_done) {
    on_done(outcome);
  }
}

void Warden::FetchWithStatus(size_t request_bytes, size_t reply_bytes,
                             odsim::SimDuration server_time,
                             odnet::RpcClient::StatusFn on_done) {
  OD_CHECK_MSG(viceroy_ != nullptr, "warden used before registration");
  RemoteServer* server = server_.get();
  viceroy_->rpc().CallWithStatus(
      request_bytes, reply_bytes,
      [server, server_time](odsim::EventFn done) {
        server->Submit(server_time, std::move(done));
      },
      [this, on_done = std::move(on_done)](odnet::RpcStatus status) {
        if (status != odnet::RpcStatus::kOk) {
          ++failed_fetches_;
        }
        if (on_done) {
          on_done(status);
        }
      });
}

}  // namespace odyssey
