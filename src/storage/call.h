// The one request/reply path to a storage node.
//
// Every call into a StorageNode handler — the driver's writes, page reads
// and recovery RPCs, peer gossip and hydration pulls, the control plane's
// SCL probes — is a sim::UnaryCall whose server side resolves the node at
// delivery time and answers Unavailable when no node is there. Call is
// that request/reply shape written once: the handler is a template
// argument, so the closures carry only the resolver, the node id and the
// request, exactly what the hand-written call sites captured.
//
// Either leg may be dropped by the network (§2.1: "any given write may be
// lost"); then `on_reply` never runs and the caller's own timers decide.

#pragma once

#include <cstdint>
#include <utility>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/rpc.h"
#include "src/storage/storage_node.h"

namespace aurora::storage {

namespace detail {

/// The response type of a StorageNode handler `void (Req, ReplyFn<Resp>)`.
template <typename Handler>
struct HandlerTraits;

template <typename Request, typename Response>
struct HandlerTraits<void (StorageNode::*)(Request,
                                           sim::ReplyFn<Response>)> {
  using ResponseType = Response;
};

}  // namespace detail

/// Call's resolver over a directory the caller holds (and outlives its
/// calls with); an empty directory resolves nothing.
inline auto ResolveWith(const NodeResolver& resolver) {
  return [&resolver](NodeId node) -> StorageNode* {
    return resolver ? resolver(node) : nullptr;
  };
}

/// Sends `request` from `from` to storage node `node` and runs `Handler`
/// there. `resolve(node)` maps the id to its StorageNode* at delivery; a
/// null result answers Unavailable over the return wire, like any other
/// reply. `on_reply(Response)` runs back at `from`.
template <auto Handler, typename Request, typename Resolve, typename OnReply>
void Call(sim::Network* net, NodeId from, NodeId node, Resolve resolve,
          Request request, OnReply on_reply) {
  using Response =
      typename detail::HandlerTraits<decltype(Handler)>::ResponseType;
  const uint64_t request_bytes = request.SerializedSize();
  sim::UnaryCall<Response>(
      net, from, node, request_bytes,
      [resolve = std::move(resolve), node, request = std::move(request)](
          sim::ReplyFn<Response> reply) mutable {
        StorageNode* server = resolve(node);
        if (server == nullptr) {
          Response unresolved{};
          unresolved.status = Status::Unavailable("unresolved storage node");
          reply(std::move(unresolved));
          return;
        }
        (server->*Handler)(std::move(request), std::move(reply));
      },
      [](const Response& response) { return response.SerializedSize(); },
      std::move(on_reply));
}

}  // namespace aurora::storage
