// LMAC-backed transport: DirQ over the real (simulated) TDMA MAC.
//
// Messages ride slot-synchronously in the sender's data section; deaths
// are discovered by LMAC's control-message timeout and surface as
// cross-layer callbacks, which this adapter forwards to a user-supplied
// handler (typically DirqNetwork::handle_node_death via the integration
// harness). This is the paper's §4.2 cross-layer path.
//
// Cost note: the ledger behind costs() holds *data-section* costs (the
// DirQ messages), which the network books as it sends and as this adapter
// delivers; a multicast's non-addressed hearers discard the frame before
// delivery, so they book nothing. LMAC's own control traffic is accounted
// inside LmacNetwork and is the MAC's standing cost, present for flooding
// and DirQ alike.
//
// Sends only enqueue into the sender's MAC queue; the scheduler's slot
// loop delivers them later, in slot order. The epoch engine runs its walk
// on the caller over this transport at every --threads width (the pool
// still runs the reading fetch), so the walk's sends and the slot loop
// both stay on one thread.
#pragma once

#include <functional>

#include "core/transport.hpp"
#include "mac/lmac.hpp"

namespace dirq::core {

class LmacTransport final : public Transport, public mac::LinkObserver {
 public:
  /// The LmacNetwork must be started by the caller; this adapter installs
  /// itself as the MAC's observer.
  LmacTransport(mac::LmacNetwork& mac, MessageSink& sink);

  // --- Transport ------------------------------------------------------------
  void unicast(NodeId from, NodeId to, const Message& msg) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override;
  void broadcast(NodeId from, const Message& msg) override;

  // --- cross-layer notifications ---------------------------------------------
  using NeighborHandler = std::function<void(NodeId self, NodeId neighbor)>;
  void set_on_neighbor_lost(NeighborHandler h) { on_lost_ = std::move(h); }

  // --- mac::LinkObserver -------------------------------------------------------
  void on_message(NodeId self, const mac::Frame& frame) override;
  void on_neighbor_lost(NodeId self, NodeId neighbor) override;

 private:
  struct Addressed {  // multicast payload: explicit target set
    std::vector<NodeId> targets;
    Message msg;
  };

  mac::LmacNetwork& mac_;
  MessageSink& sink_;
  NeighborHandler on_lost_;
};

}  // namespace dirq::core
