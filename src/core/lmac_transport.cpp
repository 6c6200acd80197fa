#include "core/lmac_transport.hpp"

#include <algorithm>

namespace dirq::core {

LmacTransport::LmacTransport(mac::LmacNetwork& mac, MessageSink& sink)
    : mac_(mac), sink_(sink) {
  mac_.set_observer(this);
}

void LmacTransport::unicast(NodeId from, NodeId to, const Message& msg) {
  mac_.send(from, to, msg);
}

void LmacTransport::multicast(NodeId from, std::span<const NodeId> targets,
                              const Message& msg) {
  if (targets.empty()) return;
  // One transmission; the target set rides in the payload (as in LMAC's
  // data section addressing). Delivered via link broadcast; non-addressed
  // hearers discard it undelivered (they sleep through the data section).
  // Callers pass targets in arbitrary (tree) order; on_message looks them
  // up with binary_search, so sort here.
  Addressed a{std::vector<NodeId>(targets.begin(), targets.end()), msg};
  std::sort(a.targets.begin(), a.targets.end());
  mac_.broadcast(from, std::move(a));
}

void LmacTransport::broadcast(NodeId from, const Message& msg) {
  mac_.broadcast(from, msg);
}

void LmacTransport::on_message(NodeId self, const mac::Frame& frame) {
  if (const auto* addressed = std::any_cast<Addressed>(&frame.payload)) {
    if (!std::binary_search(addressed->targets.begin(),
                            addressed->targets.end(), self)) {
      return;  // data section not addressed to us
    }
    sink_.deliver(self, frame.src, addressed->msg);
    return;
  }
  if (const auto* msg = std::any_cast<Message>(&frame.payload)) {
    sink_.deliver(self, frame.src, *msg);
  }
}

void LmacTransport::on_neighbor_lost(NodeId self, NodeId neighbor) {
  if (on_lost_) on_lost_(self, neighbor);
}

}  // namespace dirq::core
