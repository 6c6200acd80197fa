// The experiment driver: reproduces the paper's §7 simulation setup
// end-to-end.
//
//   "The results are based on a network topology of 50 nodes which
//    includes one root where k=8 and d=10. ... A synthetic dataset with
//    4 sensor types has been generated ... Each sensor acquires a reading
//    every time unit for a period of 20,000 time units. ... Random queries
//    which covered 20%, 40% and 60% of the nodes were generated every 20
//    epochs."
//
// One Experiment = one (theta-mode, relevant-fraction, seed) cell of the
// evaluation grid; the bench binaries run grids of them.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/admission.hpp"
#include "core/flooding.hpp"
#include "core/network.hpp"
#include "data/reading_source.hpp"
#include "mac/lmac.hpp"
#include "metrics/audit.hpp"
#include "metrics/histogram.hpp"
#include "net/placement.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Which transport carries the protocol traffic.
///   Instant — synchronous unit-cost delivery on the topology graph (the
///     paper's cost model without MAC latency; fast figure sweeps).
///   Lmac — the reimplemented TDMA MAC (paper ref [2]): messages ride
///     slot-synchronously in data sections, one sensing epoch per LMAC
///     frame, and neighbour death surfaces through the MAC's control
///     timeout (the §4.2 cross-layer path).
enum class TransportKind { Instant, Lmac };

struct ExperimentConfig {
  std::uint64_t seed = 42;
  net::RandomPlacementConfig placement{};  // defaults to the paper's 50 nodes
  std::int64_t epochs = 20000;             // paper §7
  std::int64_t query_period = 20;          // paper §7
  double relevant_fraction = 0.4;          // 0.2 / 0.4 / 0.6 in the paper
  /// Multi-sink query plane. `sinks` names the sink roots explicitly;
  /// when empty, `sink_count` roots are chosen by net::spread_roots
  /// (node 0 — the paper's root — first, then greedy farthest-point).
  /// The defaults reproduce the paper's single-sink deployment exactly.
  std::vector<NodeId> sinks{};
  std::size_t sink_count = 1;
  /// How the gateway assigns each query to a sink when several exist
  /// (see core/admission.hpp). Irrelevant with one sink.
  RoutingPolicy routing = RoutingPolicy::Admission;
  /// Fraction of injected queries drawn as conjunctive multi-attribute
  /// queries over `multi_attr_count` sensor types (paper §2: "DirQ can
  /// use multiple attributes"). 0 (the default, every golden) keeps the
  /// paper's pure range-query stream and consumes no extra RNG.
  double multi_attr_fraction = 0.0;
  std::size_t multi_attr_count = 2;
  /// Channel drop probability in [0, 1). 0 keeps the paper's lossless
  /// setup; > 0 installs a LossChannel (DirqNetwork::set_loss) that
  /// rolls a drop verdict for every operational delivery (CRC-failed
  /// receptions: tx and rx energy are still spent, the frame is lost).
  /// The constructor's one-off deployment bootstrap (location announce
  /// wave) always runs lossless; its cost stays in the ledger.
  double loss_rate = 0.0;
  NetworkConfig network{};
  std::int64_t epochs_per_hour = kEpochsPerHour;
  std::int64_t series_bin = 100;  // Fig. 6's "every 100 epochs"
  /// Bursty/diurnal query arrivals (ROADMAP "new workloads"): when
  /// burst_length_epochs > 0, queries are injected only while the cycle
  /// phase epoch % (burst_length_epochs + burst_gap_epochs) falls inside
  /// the burst; the gap is silent. Injection stays on the query_period
  /// lattice within a burst, so the rate predictor sees strongly
  /// non-smooth hourly counts instead of the paper's constant stream.
  /// burst_length_epochs == 0 (default) keeps the smooth arrivals.
  std::int64_t burst_length_epochs = 0;
  std::int64_t burst_gap_epochs = 0;
  /// Which synthetic-environment backend supplies readings (see
  /// data/fast_field.hpp). Pinned is the default and the only backend any
  /// golden is recorded against; Fast reproduces the same correlation
  /// structure with counter-based noise whose per-epoch cost is
  /// independent of history — the backend for large-topology runs.
  data::EnvironmentBackend field_backend = data::EnvironmentBackend::Pinned;
  /// Keep the full per-query record list (1 000 entries for the default
  /// run); benches that only need aggregates can switch it off.
  bool keep_records = true;
  /// Intra-run worker count for the epoch loop (DirqNetwork::set_threads):
  /// 1 (default) runs the epoch plan as one chunk — the golden
  /// configuration; 0 means all hardware threads. Single-sink instant
  /// runs shard by root-child subtree, multi-sink instant runs by
  /// spanning tree, and lossy channels evaluate their counter-keyed drop
  /// verdicts inside the pool tasks. LMAC runs keep the one-chunk walk
  /// and slot loop on the caller and use the pool for the reading fetch.
  /// Every combination is byte-identical to 1 thread — see
  /// Experiment::effective_threads.
  unsigned threads = 1;
  TransportKind transport = TransportKind::Instant;
  /// Frame geometry when transport == Lmac. The default (32 slots x 32
  /// ticks = 1024 ticks) makes one LMAC frame exactly one sensing epoch
  /// (kTicksPerEpoch); the driver advances the scheduler one frame per
  /// epoch regardless of the geometry chosen here.
  mac::LmacConfig lmac{};

  /// Sinks this config deploys: the explicit list's size when one is
  /// given, `sink_count` otherwise.
  [[nodiscard]] std::size_t resolved_sink_count() const noexcept {
    return sinks.empty() ? sink_count : sinks.size();
  }

  /// Validates every field the driver divides or modulos by (and the
  /// probability/fraction knobs), including the sink plane: duplicate
  /// sink ids, ids outside the placement, and a zero sink count all throw
  /// with a message naming the problem. (Initial placements are fully
  /// alive, so "dead root" cannot arise here; net::TreeSet re-checks
  /// aliveness at construction for callers that mutate first.) Called by
  /// Experiment::run; throws std::invalid_argument naming the offending
  /// field.
  void validate() const;
};

/// One injected query's bookkeeping.
struct QueryRecord {
  std::int64_t epoch = 0;
  SensorType type = 0;
  metrics::QueryAudit audit;         // delivery audit (received vs involved)
  metrics::QueryAudit source_audit;  // answer audit (believed vs true sources)
  CostUnits dirq_query_cost = 0;
  CostUnits flooding_cost = 0;  // Eq. (3) for the same instant's topology
  std::size_t sources = 0;      // ground-truth source count
  std::size_t population = 0;   // non-root tree members at injection time
  /// Injection -> answer delay in virtual epochs. 0 on the instant
  /// transport (the audit closes synchronously); on LMAC the query
  /// disseminates until the next injection boundary, so the deferral
  /// window — a full query_period — counts toward its latency.
  std::int64_t latency_epochs = 0;
};

struct ExperimentResults {
  // Fig. 6: update messages per `series_bin` epochs.
  sim::TimeSeries updates_per_bin{100};
  // Per-query aggregates (percentages are of the non-root population).
  sim::RunningStat overshoot_pct;   // delivery overshoot: wrong / should
  sim::RunningStat should_pct;      // "nodes that SHOULD receive"
  sim::RunningStat receive_pct;     // "nodes that RECEIVE"
  sim::RunningStat source_pct;      // "source nodes"
  sim::RunningStat wrong_pct;       // "nodes that SHOULD NOT receive" yet did
  sim::RunningStat coverage_pct;    // fraction of should-set reached
  // Answer-level accuracy: nodes that believe they satisfy the query
  // (false positives come from the theta-widened own tuples) vs the
  // ground-truth sources. This is the Fig. 7 metric; see EXPERIMENTS.md
  // "overshoot definition".
  sim::RunningStat source_overshoot_pct;  // wrongly answering / true sources
  sim::RunningStat source_coverage_pct;   // true sources that answer
  // Energy.
  CostLedger ledger;                // DirQ: query + update + control units
  CostUnits flooding_total = 0;     // same query stream, flooded
  /// The MAC's standing cost on the Lmac transport: LMAC control-section
  /// traffic (slot schedules, liveness beacons) summed over all nodes.
  /// Present for flooding and DirQ alike — the denominator context for
  /// bench_lmac_overhead's "protocol cost vs MAC keep-alive cost" figure.
  /// Always 0 on the Instant transport (no MAC is simulated). Covers the
  /// run's epochs only — the post-run drain window is attributed to
  /// mac_control_drain, so a 20001-epoch run stays comparable to 20000.
  CostUnits mac_control_total = 0;
  /// MAC control traffic spent after the final epoch, during the drain
  /// frames that give the last in-flight query its full query_period
  /// dissemination window. 0 when the drain was a no-op (epochs a
  /// multiple of query_period — every golden configuration) and on the
  /// Instant transport.
  CostUnits mac_control_drain = 0;
  std::int64_t queries = 0;
  std::int64_t updates_transmitted = 0;
  std::int64_t samples_taken = 0;    // physical ADC samples (paper §8)
  std::int64_t samples_skipped = 0;  // suppressed by the predictor
  // Hourly context: Umax/Hr per hour (Fig. 6 reference lines) and EHr.
  std::vector<double> umax_per_hour;
  std::vector<double> ehr_per_hour;
  // Mean theta (as % of span, temperature type) per series_bin epochs —
  // shows ATC's autonomous threshold trajectory.
  std::vector<double> theta_pct_series;
  // Per-node radio energy attribution. The network's lifetime is governed
  // by its hottest node, and sum(node_tx)/sum(node_rx) must reconcile with
  // the ledger's tx/rx totals on every backend (the cost-parity tests).
  std::vector<CostUnits> node_tx;
  std::vector<CostUnits> node_rx;
  std::vector<QueryRecord> records;
  // Multi-sink accounting. Sized to the deployed sink count (1 for the
  // paper's configuration — the tree-0 entries then mirror the globals).
  std::vector<NodeId> sink_roots;          // resolved root of each tree
  std::vector<CostLedger> sink_ledgers;    // per-sink share; sums to ledger
  std::vector<std::int64_t> sink_queries;  // queries routed to each sink
  // Per-sink hourly Umax/Hr — each sink floods its own budget from its
  // own tree's fMax and its own predicted EHr (umax_per_hour above stays
  // the tree-0 series the Fig. 6 goldens record).
  std::vector<std::vector<double>> sink_umax_per_hour;
  /// Update+control energy spent maintaining the extra trees (k >= 1) on
  /// top of the paper's single tree — the price of multi-sink redundancy.
  CostUnits cross_tree_update_overhead = 0;
  /// Injection -> answer latency in virtual epochs, all queries (the
  /// per-sink histograms below merge to exactly this). Instant-transport
  /// answers are synchronous (latency 0); LMAC answers close at the next
  /// injection boundary (latency query_period) — the serve plane is where
  /// queueing makes this distribution non-trivial.
  metrics::LatencyHistogram query_latency_epochs;
  /// Per-sink latency split, sized to the deployed sink count — the
  /// multi-sink follow-on metric (printed by dirqsim when --sinks > 1).
  std::vector<metrics::LatencyHistogram> sink_query_latency;

  /// Energy-balance spread across sinks: (max - min) / mean of per-sink
  /// total cost. 0 for a single sink (or an all-idle plane). The
  /// admission policy's target metric — bench_multi_sink compares it
  /// against round-robin.
  [[nodiscard]] double sink_energy_spread() const noexcept {
    if (sink_ledgers.size() < 2) return 0.0;
    CostUnits lo = sink_ledgers.front().total(), hi = lo, sum = 0;
    for (const CostLedger& l : sink_ledgers) {
      const CostUnits t = l.total();
      lo = t < lo ? t : lo;
      hi = t > hi ? t : hi;
      sum += t;
    }
    if (sum == 0) return 0.0;
    const double mean =
        static_cast<double>(sum) / static_cast<double>(sink_ledgers.size());
    return static_cast<double>(hi - lo) / mean;
  }

  /// Headline ratio: DirQ total cost / flooding total cost (paper:
  /// "DirQ spends between 45% and 55% the cost of flooding").
  ///
  /// Degenerate case: a run that injected no queries has no flooding
  /// baseline (flooding_total == 0), so there is no ratio — the result is
  /// quiet NaN, never a fake 0.0 a sweep aggregation could mistake for
  /// "DirQ was free". Callers that aggregate ratios must filter with
  /// std::isfinite (the JSON sink emits null).
  [[nodiscard]] double cost_ratio() const noexcept {
    return flooding_total == 0
               ? std::numeric_limits<double>::quiet_NaN()
               : static_cast<double>(ledger.total()) /
                     static_cast<double>(flooding_total);
  }
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg) : cfg_(cfg) {}

  /// Builds the world from the seed and runs the full epoch loop.
  ExperimentResults run();

  /// The worker count a config actually runs with: cfg.threads resolved
  /// (0 → hardware concurrency), the size of the run's pool on every
  /// transport. Lossy channels use order-independent counter-keyed drop
  /// verdicts (core/lossy.hpp); LMAC runs use the pool for the reading
  /// fetch only — every width is byte-identical to --threads 1. Exposed
  /// so the CLI and the benches report the resolved count.
  [[nodiscard]] static unsigned effective_threads(const ExperimentConfig& cfg);

  [[nodiscard]] const ExperimentConfig& config() const noexcept { return cfg_; }

 private:
  ExperimentConfig cfg_;
};

}  // namespace dirq::core
