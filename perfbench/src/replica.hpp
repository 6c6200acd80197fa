// Traced replicas of the library's entry points.
//
// traced_experiment mirrors core::Experiment::run and traced_serve mirrors
// serve::Server::run: the same public calls, in the same order, each
// wrapped in a span (tracer.hpp). A sweep is traced by handing
// traced_experiment to sweep::SweepRunner::run as its cell body. The
// replicas must produce byte-identical output to the entry points they
// mirror — the benchmark checks that before it reports any per-layer
// number, so a change to an entry point's loop shows up as a failed gate
// instead of a trace of the old loop.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/experiment.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// What one traced run counted at the layer boundaries. The exact counts
/// are deterministic: they must repeat across runs and thread counts.
struct LayerTally {
  // Exact counts.
  std::int64_t readings = 0;       // values fetched via ReadingSource::readings
  std::int64_t updates = 0;        // DirqNetwork::updates_transmitted
  std::int64_t update_units = 0;   // ledger update tx+rx
  std::int64_t control_units = 0;  // ledger control tx+rx (EHr floods)
  std::int64_t query_units = 0;    // ledger query tx+rx
  std::int64_t injects = 0;        // queries injected into the network
  std::int64_t loss_offered = 0;
  std::int64_t loss_dropped = 0;
  std::int64_t mac_events = 0;     // Scheduler::run_until return values
  std::int64_t serve_injected = 0;
  std::int64_t serve_shed = 0;
  // Informational.
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t epochs = 0;  // simulated epochs
  // Serve only (its results carry no ledgers): non-empty when the
  // network's ledgers fail to reconcile.
  std::string ledger_error;

  void add(const LayerTally& o);
  /// Canonical rendering of the exact counts (equal strings <=> equal counts).
  [[nodiscard]] std::string exact_counts() const;
};

/// Empty when the global ledger equals the sum of the sink ledgers and the
/// per-node tx/rx sums equal the ledger's tx/rx totals; else what differs.
[[nodiscard]] std::string ledger_error(
    const dirq::core::CostLedger& global,
    std::span<const dirq::core::CostLedger> sinks,
    std::span<const dirq::CostUnits> node_tx,
    std::span<const dirq::CostUnits> node_rx);

/// Mirrors core::Experiment(cfg).run(); `id` tags the replica's root span.
dirq::core::ExperimentResults traced_experiment(
    dirq::core::ExperimentConfig cfg, std::int64_t id, LayerTally& tally);

/// Mirrors serve::Server(cfg).run() (synthetic arrivals only).
dirq::serve::ServeResults traced_serve(const dirq::serve::ServeConfig& cfg,
                                       LayerTally& tally);

}  // namespace perfbench
