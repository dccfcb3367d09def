// Unary RPC helper over the simulated network.
//
// Actors hold direct pointers to each other; the network only models
// latency, liveness, and partitions. A call delivers the server closure
// after one-way latency; the server replies (possibly asynchronously, e.g.
// after simulated disk I/O) and the response crosses the network back. If
// either hop is dropped the client callback simply never runs — exactly the
// paper's failure model, where "any given write may be lost for any reason"
// and the protocol tolerates missing acknowledgements rather than relying
// on reliable delivery.
//
// Both legs are fully templated: the server closure, response-size functor,
// and client continuation move straight into network events, and the
// response payload itself rides inside the reply closure — no std::function
// wrappers and no shared_ptr round-trip per response on the hot path.

#pragma once

#include <utility>

#include "src/sim/callback.h"
#include "src/sim/network.h"

namespace aurora::sim {

/// Server-side reply continuation for a call expecting a `Resp`. Move-only:
/// the server invokes it at most once, now or later, and may move it into
/// asynchronous completion closures (e.g. simulated disk I/O).
template <typename Resp>
using ReplyFn = MoveFunc<void(Resp)>;

/// Issues a unary call from `client` to `server_node`.
///
/// `server_fn` runs at the server after request latency; it receives a
/// reply function it may invoke at most once, now or later. `resp_bytes`
/// sizes the response message for bandwidth accounting. `on_response` runs
/// back at the client. Either leg may be silently dropped by the network.
template <typename Resp, typename ServerFn, typename RespBytes,
          typename OnResponse>
void UnaryCall(Network* net, NodeId client, NodeId server_node,
               uint64_t request_bytes, ServerFn server_fn,
               RespBytes resp_bytes, OnResponse on_response) {
  net->Send(
      client, server_node, request_bytes,
      [net, client, server_node, server_fn = std::move(server_fn),
       resp_bytes = std::move(resp_bytes),
       on_response = std::move(on_response)]() mutable {
        ReplyFn<Resp> reply =
            [net, client, server_node, resp_bytes = std::move(resp_bytes),
             on_response = std::move(on_response)](Resp resp) mutable {
              const uint64_t bytes = resp_bytes(resp);
              net->Send(server_node, client, bytes,
                        [on_response = std::move(on_response),
                         resp = std::move(resp)]() mutable {
                          on_response(std::move(resp));
                        });
            };
        server_fn(std::move(reply));
      });
}

}  // namespace aurora::sim
