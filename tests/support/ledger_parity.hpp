// Shared cost-parity assertion: on every transport backend, each
// transmission and each decoded reception is attributed to exactly one
// node, so the summed per-node counters must equal the ledger's tx/rx
// totals — including the bootstrap announce wave carried over at a
// transport swap and, under loss, the CRC-failed receptions, which
// DirqNetwork::deliver books against the receiving node too. Used by the
// experiment unit tests and the scenario tiers so the invariant's
// decomposition can never drift between them.
#pragma once

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hpp"

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

}  // namespace dirq::core
