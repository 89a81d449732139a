#include "src/net/rpc.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace odnet {

const char* RpcStatusName(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return "ok";
    case RpcStatus::kRetriesExhausted:
      return "retries-exhausted";
    case RpcStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case RpcStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

RpcClient::RpcClient(odsim::Simulator* sim, Link* link, odpower::PowerManager* pm,
                     uint64_t loss_seed)
    : sim_(sim), link_(link), pm_(pm), rng_(loss_seed) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(link != nullptr);
  OD_CHECK(pm != nullptr);
}

void RpcClient::set_config(const RpcConfig& config) {
  OD_CHECK(config.loss_probability >= 0.0 && config.loss_probability < 1.0);
  OD_CHECK(config.max_retries >= 0);
  OD_CHECK(config.backoff_factor >= 1.0);
  OD_CHECK(config.retry_timeout > odsim::SimDuration::Zero());
  OD_CHECK(config.max_retry_timeout >= config.retry_timeout);
  OD_CHECK(config.retry_jitter >= 0.0 && config.retry_jitter < 1.0);
  config_ = config;
}

void RpcClient::Call(size_t request_bytes, size_t reply_bytes,
                     odsim::SimDuration server_time, odsim::EventFn on_reply) {
  Start(request_bytes, reply_bytes, server_time, std::move(on_reply));
}

void RpcClient::CallWithCompute(size_t request_bytes, size_t reply_bytes,
                                ComputeFn compute, odsim::EventFn on_reply) {
  // Historical contract: completion fires regardless of outcome and the
  // caller never learns why.
  Start(request_bytes, reply_bytes, std::move(compute), std::move(on_reply));
}

void RpcClient::CallWithStatus(size_t request_bytes, size_t reply_bytes,
                               ComputeFn compute, StatusFn on_complete) {
  Start(request_bytes, reply_bytes, std::move(compute), std::move(on_complete));
}

void RpcClient::CallWithOutcome(size_t request_bytes, size_t reply_bytes,
                                OutcomeComputeFn compute, StatusFn on_complete) {
  Start(request_bytes, reply_bytes, std::move(compute), std::move(on_complete));
}

void RpcClient::Start(size_t request_bytes, size_t reply_bytes,
                      ServerSide server, Completion completion) {
  CallId id = calls_.Acquire();
  CallState& call = calls_.Get(id);
  call.request_bytes = request_bytes;
  call.reply_bytes = reply_bytes;
  call.server = std::move(server);
  call.completion = std::move(completion);
  // Hold the interface out of standby across the whole exchange: the client
  // must listen for the reply while the server computes.
  pm_->BeginNetworkUse();
  if (config_.deadline > odsim::SimDuration::Zero()) {
    // Settle cancels both timers, so they only ever fire for a live call.
    call.deadline_timer = sim_->Schedule(config_.deadline, [this, id] {
      ++deadlines_exceeded_;
      Settle(id, RpcStatus::kDeadlineExceeded);
    });
  }
  Attempt(id);
}

void RpcClient::Settle(CallId id, RpcStatus status) {
  CallState& call = calls_.Get(id);
  call.deadline_timer.Cancel();
  call.retry_timer.Cancel();
  Completion completion = std::move(call.completion);
  calls_.Release(id);
  pm_->EndNetworkUse();
  if (StatusFn* on_status = std::get_if<StatusFn>(&completion)) {
    if (*on_status) {
      (*on_status)(status);
    }
  } else if (odsim::EventFn& on_reply = std::get<odsim::EventFn>(completion)) {
    on_reply();
  }
}

odsim::SimDuration RpcClient::BackoffDelay(int retry_index) {
  // retry_index is 0-based: the first retransmission waits retry_timeout.
  double scale = 1.0;
  for (int i = 0; i < retry_index; ++i) {
    scale *= config_.backoff_factor;
  }
  odsim::SimDuration base =
      std::min(config_.retry_timeout * scale, config_.max_retry_timeout);
  if (config_.retry_jitter > 0.0) {
    base = base * rng_.Uniform(1.0 - config_.retry_jitter,
                               1.0 + config_.retry_jitter);
  }
  return base;
}

void RpcClient::Attempt(CallId id) {
  CallState& call = calls_.Get(id);
  call.request_lost = rng_.Bernoulli(config_.loss_probability);
  link_->Transfer(Direction::kSend, call.request_bytes,
                  [this, id] { OnRequestSent(id); });
}

void RpcClient::OnRequestSent(CallId id) {
  CallState* call = calls_.Find(id);
  if (call == nullptr) {
    return;  // Deadline fired while the request sat in the queue.
  }
  if (call->request_lost) {
    // The server never saw the request; the client times out.
    ++request_losses_;
    Retry(id);
    return;
  }
  if (auto* compute = std::get_if<OutcomeComputeFn>(&call->server)) {
    (*compute)([this, id](bool served) { OnServerDone(id, served); });
  } else if (auto* compute = std::get_if<ComputeFn>(&call->server)) {
    (*compute)([this, id] { OnServerDone(id, true); });
  } else {
    sim_->Schedule(std::get<odsim::SimDuration>(call->server),
                   [this, id] { OnServerDone(id, true); });
  }
}

void RpcClient::OnServerDone(CallId id, bool served) {
  CallState* call = calls_.Find(id);
  if (call == nullptr) {
    return;  // The call settled (deadline) while the server worked.
  }
  if (!served) {
    // Admission reject: the server answers with a small typed refusal.
    // Not retried — the refusal is deliberate, and the reject reply shares
    // the loss-free fate of being short (the client treats a lost refusal
    // as the refusal it is only after its deadline; modeling that adds
    // nothing here).
    ++rejected_;
    link_->Transfer(Direction::kReceive, kRejectReplyBytes, [this, id] {
      if (calls_.Find(id) != nullptr) {
        Settle(id, RpcStatus::kRejected);
      }
    });
    return;
  }
  call->reply_lost = rng_.Bernoulli(config_.loss_probability);
  link_->Transfer(Direction::kReceive, call->reply_bytes,
                  [this, id] { OnReplyReceived(id); });
}

void RpcClient::OnReplyReceived(CallId id) {
  CallState* call = calls_.Find(id);
  if (call == nullptr) {
    return;
  }
  if (call->reply_lost) {
    ++reply_losses_;
    Retry(id);
    return;
  }
  Settle(id, RpcStatus::kOk);
}

void RpcClient::Retry(CallId id) {
  CallState& call = calls_.Get(id);
  if (call.attempt > config_.max_retries) {
    ++retries_exhausted_;
    Settle(id, RpcStatus::kRetriesExhausted);
    return;
  }
  ++retransmissions_;
  odsim::SimDuration delay = BackoffDelay(call.attempt - 1);
  call.retry_timer = sim_->Schedule(delay, [this, id] {
    ++calls_.Get(id).attempt;
    Attempt(id);
  });
}

}  // namespace odnet
