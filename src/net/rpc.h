// Remote procedure calls over the WaveLAN link.
//
// A call transmits the request, waits for the remote server to compute (the
// client CPU is idle but the interface stays awake listening), then receives
// the reply.  This is the communication pattern of Odyssey's wardens and of
// remote/hybrid speech recognition.
//
// Failure injection: wireless links lose packets.  With a nonzero loss
// probability each message (request or reply) can be lost; the client times
// out and retransmits, paying the full energy cost of every attempt.
// Retransmission backs off exponentially with seeded jitter (a fixed retry
// period synchronizes badly with bursty loss), the attempt count is capped,
// and an optional per-call deadline bounds the worst case even when the
// channel is in full outage and transfers never complete.  Callers that care
// why a call ended use CallWithStatus; the classic Call/CallWithCompute
// entry points keep their historical contract of always completing.
//
// Per-call record.  Each call owns one CallState in a generation-checked
// slot arena inside the client (odutil::SlotArena).  It holds everything
// the exchange needs across attempts: the request and reply sizes, the
// server-side computation (moved in once, never copied), the completion,
// the attempt number, the current attempt's loss draws and the retry and
// deadline timers.  Every continuation the call schedules — the deadline,
// the retry timer, the request and reply transfers, the compute's `done` —
// captures only {client, CallId}, 16 trivially-copyable bytes that
// std::function stores inline, so once the arena has warmed up the client
// allocates nothing beyond what the caller's own closures need.  Settling
// the call (reply, exhausted retries, deadline, reject) cancels its timers,
// releases the record and bumps its slot's generation; a continuation
// that fires later — a transfer that drains after an outage, a server
// completion racing the deadline — finds a stale generation and does
// nothing.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <variant>

#include "src/net/link.h"
#include "src/power/power_manager.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/slot_arena.h"

namespace odnet {

// Why a call finished.  kOk is a received reply; the failures are typed so
// wardens can degrade deliberately (serve a cached object, shed the fetch)
// instead of treating every completion alike.
enum class RpcStatus {
  kOk,
  kRetriesExhausted,   // max_retries spent without a reply.
  kDeadlineExceeded,   // Per-call deadline elapsed (e.g. link outage).
  kRejected,           // Server admission control refused the request.
};

const char* RpcStatusName(RpcStatus status);

struct RpcConfig {
  // Probability that any one message (request or reply) is lost.
  double loss_probability = 0.0;
  // Backoff before the first retransmission; attempt k waits
  // min(retry_timeout * backoff_factor^(k-1), max_retry_timeout), scaled by
  // a jitter factor drawn uniformly from [1 - retry_jitter, 1 + retry_jitter]
  // out of the client's seeded stream.
  odsim::SimDuration retry_timeout = odsim::SimDuration::Seconds(2);
  double backoff_factor = 2.0;
  odsim::SimDuration max_retry_timeout = odsim::SimDuration::Seconds(16);
  double retry_jitter = 0.1;
  // Retransmissions before the client gives up (kRetriesExhausted); the
  // original transmission is not a retry, so a call costs at most
  // max_retries + 1 attempts.
  int max_retries = 7;
  // Per-call wall-clock budget measured from call start; Zero() disables.
  // The deadline fires even when a transfer is wedged in an outage queue —
  // it is the liveness bound that keeps wardens from waiting forever.
  odsim::SimDuration deadline = odsim::SimDuration::Zero();
};

class RpcClient {
 public:
  RpcClient(odsim::Simulator* sim, Link* link, odpower::PowerManager* pm,
            uint64_t loss_seed = 0x59c0ffeeULL);

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // The server-side computation between request and reply: invoked with a
  // completion callback once the request has arrived.  Lets callers route
  // the work through a queued server model instead of a fixed delay.
  using ComputeFn = std::function<void(odsim::EventFn done)>;

  // Completion with the call's typed outcome.
  using StatusFn = std::function<void(RpcStatus status)>;

  // Issues a request/response exchange with a fixed server processing time.
  // `on_reply` fires once the full reply has been received (or the call gave
  // up); the warden falls back to whatever arrived and upper layers see
  // completion.
  void Call(size_t request_bytes, size_t reply_bytes, odsim::SimDuration server_time,
            odsim::EventFn on_reply);

  // As Call, but the server-side work is performed by `compute` (e.g.
  // submitted to a odyssey::RemoteServer queue).  If a reply is lost, the
  // retransmitted request recomputes.
  void CallWithCompute(size_t request_bytes, size_t reply_bytes, ComputeFn compute,
                       odsim::EventFn on_reply);

  // As CallWithCompute, but the completion receives the typed outcome, so
  // the caller can distinguish a reply from a failed call and degrade.
  void CallWithStatus(size_t request_bytes, size_t reply_bytes, ComputeFn compute,
                      StatusFn on_complete);

  // Server-side computation that may refuse the request: invoked with a
  // completion taking `served` — true for content produced (the full reply
  // follows), false for an admission reject (the server answered with a
  // small typed refusal instead of computing).
  using OutcomeComputeFn = std::function<void(std::function<void(bool served)>)>;

  // As CallWithStatus, but the server may reject at admission.  A reject
  // transmits a `kRejectReplyBytes` refusal back to the client and settles
  // the call with RpcStatus::kRejected immediately — no retransmission:
  // the server deliberately refused, and retrying into an overloaded
  // queue only deepens it.  Backpressure belongs to the caller (the
  // viceroy's overload clamp), not the transport.
  void CallWithOutcome(size_t request_bytes, size_t reply_bytes,
                       OutcomeComputeFn compute, StatusFn on_complete);

  // Size of the refusal message an admission reject sends back.
  static constexpr size_t kRejectReplyBytes = 64;

  void set_config(const RpcConfig& config);
  const RpcConfig& config() const { return config_; }

  // -- Diagnostics and test hooks --------------------------------------------

  // Total retransmitted messages so far.
  int retransmissions() const { return retransmissions_; }
  // Loss accounting, split by which half of the exchange the channel ate.
  int request_losses() const { return request_losses_; }
  int reply_losses() const { return reply_losses_; }
  // Calls that ended without a reply, by failure type.
  int retries_exhausted() const { return retries_exhausted_; }
  int deadlines_exceeded() const { return deadlines_exceeded_; }
  // Calls the server refused at admission.
  int rejected() const { return rejected_; }
  // Calls started and not yet settled (records live in the arena).
  int calls_in_flight() const { return static_cast<int>(calls_.live()); }

 private:
  // One call's record; see the header comment for its lifetime.  Each
  // entry point keeps its own form of server side (a fixed delay, a
  // compute, an outcome-aware compute) and completion (plain or typed), so
  // Call, CallWithCompute and CallWithStatus run without adapter closures.
  using ServerSide = std::variant<odsim::SimDuration, ComputeFn, OutcomeComputeFn>;
  using Completion = std::variant<odsim::EventFn, StatusFn>;
  struct CallState {
    size_t request_bytes = 0;
    size_t reply_bytes = 0;
    ServerSide server;
    Completion completion;
    int attempt = 1;  // 1-based; attempt - 1 retries have been spent.
    // This attempt's loss draws, made when its message is sent.
    bool request_lost = false;
    bool reply_lost = false;
    odsim::EventHandle deadline_timer;
    odsim::EventHandle retry_timer;
  };
  using CallId = odutil::SlotArena<CallState>::Id;

  // Takes a record for a new call and sends its first attempt.
  void Start(size_t request_bytes, size_t reply_bytes, ServerSide server,
             Completion completion);
  void Attempt(CallId id);
  void OnRequestSent(CallId id);
  void OnServerDone(CallId id, bool served);
  void OnReplyReceived(CallId id);
  void Retry(CallId id);
  void Settle(CallId id, RpcStatus status);
  odsim::SimDuration BackoffDelay(int retry_index);

  odsim::Simulator* sim_;
  Link* link_;
  odpower::PowerManager* pm_;
  RpcConfig config_;
  odutil::Rng rng_;
  int retransmissions_ = 0;
  int request_losses_ = 0;
  int reply_losses_ = 0;
  int retries_exhausted_ = 0;
  int deadlines_exceeded_ = 0;
  int rejected_ = 0;
  odutil::SlotArena<CallState> calls_;
};

}  // namespace odnet

#endif  // SRC_NET_RPC_H_
