// Shared cost-parity assertions: on every transport backend, each
// transmission and each decoded reception is booked once, into the global
// ledger, its message's tree ledger and the node that sent or heard it —
// including the bootstrap announce wave carried over at a transport swap
// and, under loss, the CRC-failed receptions, which DirqNetwork::deliver
// books before the drop verdict. So the summed per-node counters equal the
// ledger's tx/rx totals, and the tree ledgers sum to the global ledger
// field by field. Used by the experiment unit tests, the scenario tiers
// and the epoch-engine oracle so the invariant's decomposition can never
// drift between them.
#pragma once

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/topology.hpp"

namespace dirq::core {

inline void expect_ledger_reconciles(const ExperimentResults& res) {
  const CostUnits tx_sum =
      std::accumulate(res.node_tx.begin(), res.node_tx.end(), CostUnits{0});
  const CostUnits rx_sum =
      std::accumulate(res.node_rx.begin(), res.node_rx.end(), CostUnits{0});
  EXPECT_EQ(tx_sum,
            res.ledger.query_tx + res.ledger.update_tx + res.ledger.control_tx);
  EXPECT_EQ(rx_sum,
            res.ledger.query_rx + res.ledger.update_rx + res.ledger.control_rx);
}

/// Three-way parity on a live network over `topo`: costs() == sum of
/// tree_ledger(k), and the summed node_tx / node_rx over every topology
/// node equal the ledger's tx / rx. Inside the add_node ->
/// handle_node_addition window the topology is ahead of the network,
/// whose counters cover the newcomer once it has heard a frame.
inline void expect_ledger_reconciles(const DirqNetwork& net,
                                     const net::Topology& topo) {
  CostLedger trees;
  for (TreeId k = 0; k < net.tree_count(); ++k) trees += net.tree_ledger(k);
  const CostLedger& c = net.costs();
  EXPECT_EQ(c.query_tx, trees.query_tx);
  EXPECT_EQ(c.query_rx, trees.query_rx);
  EXPECT_EQ(c.update_tx, trees.update_tx);
  EXPECT_EQ(c.update_rx, trees.update_rx);
  EXPECT_EQ(c.control_tx, trees.control_tx);
  EXPECT_EQ(c.control_rx, trees.control_rx);
  CostUnits tx_sum = 0;
  CostUnits rx_sum = 0;
  for (NodeId u = 0; u < topo.size(); ++u) {
    tx_sum += net.node_tx(u);
    rx_sum += net.node_rx(u);
  }
  EXPECT_EQ(tx_sum, c.query_tx + c.update_tx + c.control_tx);
  EXPECT_EQ(rx_sum, c.query_rx + c.update_rx + c.control_rx);
}

}  // namespace dirq::core
