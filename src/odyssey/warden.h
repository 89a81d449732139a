// Wardens: type-specific code components (Figure 3).
//
// A warden encapsulates everything Odyssey needs to know about one data
// type: how to fetch objects from servers at a requested fidelity, and how
// much data a given fidelity implies.  Type-specific wardens (video, speech,
// map, web) subclass this and live next to their applications; the base
// class provides the shared fetch-over-RPC path.

#ifndef SRC_ODYSSEY_WARDEN_H_
#define SRC_ODYSSEY_WARDEN_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "src/net/rpc.h"
#include "src/odyssey/server.h"
#include "src/sim/simulator.h"
#include "src/util/slot_arena.h"

namespace odyssey {

class Viceroy;

class Warden {
 public:
  explicit Warden(std::string data_type);
  virtual ~Warden();

  Warden(const Warden&) = delete;
  Warden& operator=(const Warden&) = delete;

  const std::string& data_type() const { return data_type_; }

  // Fetches an object: sends a `request_bytes` annotated request, lets this
  // type's server spend `server_time` producing the representation
  // (filtering, transcoding, distillation), then receives `reply_bytes`.
  // Concurrent fetches queue at the server.
  void Fetch(size_t request_bytes, size_t reply_bytes, odsim::SimDuration server_time,
             odsim::EventFn on_done);

  // As Fetch, but the completion carries the RPC's typed outcome so the
  // caller can degrade deliberately — reuse a cached object, render a
  // placeholder — instead of pretending the fetch succeeded.  Failed
  // fetches are counted per warden.
  void FetchWithStatus(size_t request_bytes, size_t reply_bytes,
                       odsim::SimDuration server_time,
                       odnet::RpcClient::StatusFn on_done);

  // How a keyed fetch ended: the RPC outcome plus, for completed calls,
  // how the service satisfied it (dedicated/batched compute vs the
  // distilled-content cache).
  struct FetchOutcome {
    odnet::RpcStatus status = odnet::RpcStatus::kOk;
    odserve::ServeOutcome serve = odserve::ServeOutcome::kServed;
  };
  using OutcomeFn = std::function<void(const FetchOutcome&)>;

  // Keyed fetch against this type's (possibly shared) service.  `key`
  // names the distilled content — object id plus fidelity level — so the
  // service can batch identical in-flight work and serve repeats from its
  // cache.  Admission rejects come back typed (RpcStatus::kRejected); the
  // warden counts them and reports server overload to the viceroy, whose
  // clamp degrades the client rather than letting it hammer a full queue.
  void FetchKeyed(const std::string& key, size_t request_bytes,
                  size_t reply_bytes, odsim::SimDuration server_time,
                  OutcomeFn on_done);

  // Fetches that ended without a reply (retries exhausted or deadline).
  int failed_fetches() const { return failed_fetches_; }
  // Keyed fetches refused by admission control.
  int rejected_fetches() const { return rejected_fetches_; }
  // Keyed fetches served from the distilled-content cache.
  int cache_hits() const { return cache_hits_; }

  Viceroy* viceroy() { return viceroy_; }

  // This data type's server; created at registration.
  RemoteServer* server() { return server_.get(); }

 private:
  friend class Viceroy;

  // One keyed fetch in flight.  The RPC's compute step and the server's
  // completion capture only {warden, KeyedId}; the record is released when
  // the RPC settles, so a server completion that arrives after a deadline
  // finds a stale id and does nothing.
  struct KeyedFetch {
    std::string key;
    odsim::SimDuration server_time;
    // How the service satisfied the latest attempt; a retransmitted
    // request recomputes and overwrites it.
    odserve::ServeOutcome serve = odserve::ServeOutcome::kServed;
    // The RPC's completion for the attempt the server is working on.
    std::function<void(bool served)> served;
    OutcomeFn on_done;
  };
  using KeyedId = odutil::SlotArena<KeyedFetch>::Id;

  void SubmitKeyed(KeyedId id, std::function<void(bool served)> served);
  void FinishKeyed(KeyedId id, odnet::RpcStatus status);

  std::string data_type_;
  Viceroy* viceroy_ = nullptr;  // Set at registration.
  std::unique_ptr<RemoteServer> server_;
  int failed_fetches_ = 0;
  int rejected_fetches_ = 0;
  int cache_hits_ = 0;
  odutil::SlotArena<KeyedFetch> keyed_;
};

}  // namespace odyssey

#endif  // SRC_ODYSSEY_WARDEN_H_
