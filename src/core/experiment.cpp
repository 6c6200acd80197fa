#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "analysis/cost_model.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "data/fast_field.hpp"
#include "data/field_model.hpp"
#include "query/rate_predictor.hpp"
#include "query/workload.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/thread_pool.hpp"

namespace dirq::core {

unsigned Experiment::effective_threads(const ExperimentConfig& cfg) {
  return sim::ThreadPool::resolve(cfg.threads);
}

void ExperimentConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ExperimentConfig: " + what);
  };
  if (placement.node_count < 1) fail("placement.node_count must be >= 1");
  if (epochs < 0) fail("epochs must be >= 0");
  if (query_period < 1) fail("query_period must be >= 1");
  if (epochs_per_hour < 1) fail("epochs_per_hour must be >= 1");
  if (series_bin < 1) fail("series_bin must be >= 1");
  if (!(relevant_fraction > 0.0 && relevant_fraction <= 1.0)) {
    fail("relevant_fraction must be in (0, 1]");  // negated: rejects NaN
  }
  if (!(loss_rate >= 0.0 && loss_rate < 1.0)) {
    fail("loss_rate must be in [0, 1)");
  }
  if (sinks.empty() && sink_count < 1) fail("sink_count must be >= 1");
  if (resolved_sink_count() > static_cast<std::size_t>(placement.node_count)) {
    fail("sink count exceeds placement.node_count");
  }
  if (!sinks.empty()) {
    std::vector<NodeId> sorted = sinks;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      fail("duplicate sink id " +
           std::to_string(*std::adjacent_find(sorted.begin(), sorted.end())));
    }
    for (NodeId s : sinks) {
      if (s >= static_cast<NodeId>(placement.node_count)) {
        fail("sink id " + std::to_string(s) +
             " is outside the topology (placement.node_count = " +
             std::to_string(placement.node_count) + ")");
      }
    }
  }
  if (!(multi_attr_fraction >= 0.0 && multi_attr_fraction <= 1.0)) {
    fail("multi_attr_fraction must be in [0, 1]");
  }
  if (multi_attr_fraction > 0.0) {
    if (multi_attr_count < 2) {
      fail("multi_attr_count must be >= 2 when multi_attr_fraction > 0");
    }
    if (multi_attr_count >
        static_cast<std::size_t>(placement.sensor_type_count)) {
      fail("multi_attr_count exceeds placement.sensor_type_count");
    }
  }
  if (burst_length_epochs < 0) fail("burst_length_epochs must be >= 0");
  if (burst_gap_epochs < 0) fail("burst_gap_epochs must be >= 0");
  if (burst_length_epochs == 0 && burst_gap_epochs > 0) {
    fail("burst_gap_epochs requires burst_length_epochs > 0");
  }
  if (transport == TransportKind::Lmac) {
    if (lmac.slots_per_frame < 1 || lmac.slots_per_frame > 64) {
      fail("lmac.slots_per_frame must be in [1, 64]");
    }
    if (lmac.ticks_per_slot < 1) fail("lmac.ticks_per_slot must be >= 1");
    if (lmac.timeout_frames < 1) fail("lmac.timeout_frames must be >= 1");
  }
}

std::vector<NodeId> ExperimentConfig::sink_roots(
    const net::Topology& topo) const {
  // One sink keeps node 0 — the paper's root — as tree 0, so the default
  // deployment is byte-identical to the single-root constructor.
  if (!sinks.empty()) return sinks;
  if (sink_count <= 1) return {0};
  return net::spread_roots(topo, sink_count);
}

ExperimentResults Experiment::run() {
  cfg_.validate();
  sim::Rng rng(cfg_.seed);
  net::Topology topo = net::random_connected(cfg_.placement, rng);
  // Environment backend seam: Pinned constructs data::Environment with
  // exactly the arguments this driver always used (same substream, same
  // sequential streams — goldens untouched); Fast swaps in the
  // counter-based twin behind the same ReadingSource interface.
  const std::unique_ptr<data::ReadingSource> env_owner = data::make_environment(
      cfg_.field_backend, topo, cfg_.placement.sensor_type_count,
      rng.substream("environment"));
  data::ReadingSource& env = *env_owner;
  const std::vector<NodeId> roots = cfg_.sink_roots(topo);
  DirqNetwork network(topo, roots, cfg_.network);
  const std::size_t n_sinks = network.tree_count();

  // Backend plumbing. The constructor's bootstrap announce wave ran on the
  // network's built-in instant transport (deployment happens before the
  // channel model / MAC applies); the LMAC transport carries that ledger
  // over so cost is continuous across the swap.
  const bool use_lmac = cfg_.transport == TransportKind::Lmac;
  std::optional<LossChannel> loss;
  std::optional<sim::Scheduler> sched;
  std::optional<mac::LmacNetwork> mac;
  std::optional<LmacTransport> lmac_transport;
  std::int64_t current_epoch = 0;
  std::set<NodeId> mac_repaired;  // nodes already handled by tree repair

  if (cfg_.loss_rate > 0.0) {
    // The CRC-loss model lives inside DirqNetwork::deliver (not a sink
    // wrapper): every drop verdict is a pure function of (seed, tree,
    // from, to, per-pair delivery counter) on the seed's dedicated "loss"
    // substream, so the parallel epoch engine evaluates drops inside its
    // shards and any transport — instant or LMAC — sees the same channel.
    // Installed after construction: the bootstrap announce wave models
    // deployment, before the channel applies.
    loss.emplace(cfg_.loss_rate, sim::CounterRng(cfg_.seed).substream("loss"));
    network.set_loss(&*loss);
  }
  if (use_lmac) {
    sched.emplace();
    mac.emplace(*sched, topo, cfg_.lmac);
    lmac_transport.emplace(*mac, network);
    lmac_transport->mutable_costs() = network.costs();
    network.use_transport(*lmac_transport);
    // Cross-layer path (§4.2): LMAC's timeout-based death detection drives
    // DirQ's tree repair. One repair per dead node; LMAC reports the loss
    // once per surviving neighbour.
    lmac_transport->set_on_neighbor_lost(
        [&network, &mac_repaired, &current_epoch](NodeId, NodeId dead) {
          if (mac_repaired.insert(dead).second) {
            network.handle_node_death(dead, current_epoch);
          }
        });
    mac->start();
  }

  // Intra-run parallelism: the network runs its epoch plan on one thread
  // unless asked for more. Every backend honours the count — lossy runs
  // evaluate their order-independent drop verdicts inside the pool tasks,
  // LMAC runs fetch readings on the pool and walk on the caller.
  const unsigned threads = effective_threads(cfg_);
  if (threads > 1) network.set_threads(threads);

  // The generator stays bound to tree 0 whatever the sink count, so the
  // query *stream* is identical across 1-vs-N runs — only the admission
  // decision (which sink injects) varies. Ground-truth involvement is
  // computed per query against the tree it was actually routed to.
  query::WorkloadGenerator workload(
      topo, network.tree(), env,
      query::WorkloadConfig{cfg_.relevant_fraction, 0.02},
      rng.substream("workload"));
  // One rate predictor per sink: each sink floods the EHr it observed.
  std::vector<query::QueryRatePredictor> predictors;
  predictors.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors.emplace_back(0.4, cfg_.epochs_per_hour);
  }
  QueryAdmission admission(cfg_.routing, network.trees());
  // The multi-attribute mix draws from its own named substream, and only
  // when the mix is enabled — a 0-fraction run consumes no RNG here and
  // every pre-existing golden stays byte-identical.
  std::optional<sim::Rng> multi_rng;
  if (cfg_.multi_attr_fraction > 0.0) {
    multi_rng.emplace(rng.substream("multi-attr"));
  }
  FloodingScheme flooding(topo);

  ExperimentResults res;
  res.sink_roots = roots;
  res.sink_ledgers.resize(n_sinks);
  res.sink_queries.assign(n_sinks, 0);
  res.sink_query_latency.resize(n_sinks);
  res.sink_umax_per_hour.resize(n_sinks);
  res.updates_per_bin = sim::TimeSeries(cfg_.series_bin);
  network.set_update_hook(
      [&res](std::int64_t epoch) { res.updates_per_bin.record(epoch); });

  // A query injected on the LMAC backend disseminates across the following
  // frames; its outcome is collected just before the next injection (or
  // after the post-run drain). The instant backend collects synchronously.
  struct PendingQuery {
    std::int64_t epoch = 0;
    TreeId tree = 0;  // sink the admission layer routed it to
    SensorType type = 0;
    query::Involvement truth;
    std::size_t population = 0;
    CostUnits flooding_cost = 0;
  };
  std::optional<PendingQuery> pending;

  // `answer_epoch` is when the audit closed: the injection epoch itself on
  // the instant transport, the boundary that collected the outcome on LMAC
  // — so a deferred audit's latency includes the full deferral window, not
  // just the dissemination round-trip.
  const auto finalize_query = [this, &res, &admission](
                                  const PendingQuery& p,
                                  const QueryOutcome& outcome,
                                  std::int64_t answer_epoch) {
    const metrics::QueryAudit audit =
        metrics::audit_query(p.truth.involved, outcome.received);
    const metrics::QueryAudit source_audit =
        metrics::audit_query(p.truth.sources, outcome.believed_sources);
    const auto pct = [&p](std::size_t n) {
      return p.population == 0 ? 0.0
                               : 100.0 * static_cast<double>(n) /
                                     static_cast<double>(p.population);
    };
    res.overshoot_pct.push(audit.overshoot_pct());
    res.should_pct.push(pct(audit.should_count));
    res.receive_pct.push(pct(audit.received_count));
    res.source_pct.push(pct(p.truth.sources.size()));
    res.wrong_pct.push(pct(audit.wrong));
    res.coverage_pct.push(audit.coverage_pct());
    res.source_overshoot_pct.push(source_audit.overshoot_pct());
    res.source_coverage_pct.push(source_audit.coverage_pct());
    res.flooding_total += p.flooding_cost;
    const std::int64_t latency = answer_epoch - p.epoch;
    res.query_latency_epochs.record(latency);
    res.sink_query_latency[p.tree].record(latency);
    ++res.queries;
    ++res.sink_queries[p.tree];
    // Close the admission feedback loop: the audited dissemination cost of
    // this query becomes part of its sink's load score.
    admission.note_cost(p.tree, outcome.cost);

    if (cfg_.keep_records) {
      QueryRecord rec;
      rec.epoch = p.epoch;
      rec.type = p.type;
      rec.audit = audit;
      rec.source_audit = source_audit;
      rec.dirq_query_cost = outcome.cost;
      rec.flooding_cost = p.flooding_cost;
      rec.sources = p.truth.sources.size();
      rec.population = p.population;
      rec.latency_epochs = latency;
      res.records.push_back(rec);
    }
  };

  // The operator's prior for hour 0: the advertised query interface rate.
  const double prior_ehr = static_cast<double>(cfg_.epochs_per_hour) /
                           static_cast<double>(cfg_.query_period);
  const SimTime frame_ticks = cfg_.lmac.frame_ticks();

  for (std::int64_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    current_epoch = epoch;
    env.advance_to(epoch);

    if (epoch % cfg_.epochs_per_hour == 0) {
      for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
        // Each sink floods the EHr *it* observed; hour 0 splits the
        // advertised prior evenly (== prior_ehr when n_sinks is 1, so the
        // single-sink series is bit-identical to the pre-multi-sink code).
        const double ehr =
            predictors[t].completed_hours() > 0
                ? predictors[t].predict_next_hour()
                : prior_ehr / static_cast<double>(n_sinks);
        // Record the exact Umax/Hr each root flooded (Fig. 6 lines): the
        // broadcast's return value is the single source of truth
        // (analysis::umax_messages_per_hour), never a re-derivation.
        const double umax = network.broadcast_ehr(t, ehr, epoch);
        res.sink_umax_per_hour[t].push_back(umax);
        if (t == 0) {
          // The global series stays the tree-0 view — the paper's root.
          res.umax_per_hour.push_back(umax);
          res.ehr_per_hour.push_back(ehr);
        }
      }
    }

    network.process_epoch(env, epoch);

    if (epoch % cfg_.query_period == 0 && epoch > 0) {
      // A pending (LMAC) query is audited at every period boundary — also
      // inside a burst gap — so each one gets the same query_period-frame
      // dissemination window regardless of the arrival shape.
      if (pending) {
        finalize_query(*pending, network.collect_outcome(), epoch);
        pending.reset();
      }
      const bool in_burst =
          cfg_.burst_length_epochs <= 0 ||
          epoch % (cfg_.burst_length_epochs + cfg_.burst_gap_epochs) <
              cfg_.burst_length_epochs;
      if (in_burst) {
        // Admission decides *where* the query enters; the workload decides
        // *what* it asks. Keeping the two independent means the query
        // stream is identical across sink counts and routing policies.
        for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
          admission.sync_load(t, network.tree_ledger(t).total());
        }
        const TreeId routed = admission.route();
        const net::SpanningTree& sink_tree = network.tree(routed);
        predictors[routed].record_query(epoch);
        PendingQuery p;
        p.epoch = epoch;
        p.tree = routed;
        p.population = sink_tree.size() > 0 ? sink_tree.size() - 1 : 0;
        p.flooding_cost = flooding.analytical_cost();
        // The mix draw comes before the workload draw, and a range query
        // travels as its one-predicate MultiQuery.
        const bool is_multi =
            multi_rng && multi_rng->bernoulli(cfg_.multi_attr_fraction);
        query::MultiQuery q =
            is_multi ? workload.next_multi(epoch, cfg_.multi_attr_count)
                     : query::MultiQuery(workload.next(epoch));
        p.type = q.predicates.empty() ? 0 : q.predicates.front().type;
        p.truth = query::compute_involvement(q, topo, sink_tree, env);
        if (use_lmac) {
          network.inject_async(routed, std::move(q), epoch);
          pending = std::move(p);
        } else {
          finalize_query(p, network.inject(routed, std::move(q), epoch), epoch);
        }
      }
    }

    if (epoch % cfg_.series_bin == 0) {
      // Mean temperature-theta across alive non-root nodes: ATC trace.
      res.theta_pct_series.push_back(
          network.mean_theta_pct(kSensorTemperature));
    }

    if (use_lmac) {
      // One sensing epoch = one LMAC frame: deliver every slot of frame
      // `epoch` but stop short of frame epoch+1's first slot (scheduled at
      // exactly (epoch+1) * frame_ticks).
      sched->run_until((epoch + 1) * frame_ticks - 1);
    }
  }

  // The MAC's standing cost: control-section tx+rx over all nodes —
  // traffic LMAC spends keeping the schedule alive whether or not DirQ
  // sends anything (bench_lmac_overhead's comparison row). Snapshotted
  // *before* the drain below: the drain advances extra frames whenever
  // epochs is not a multiple of query_period, and folding their
  // keep-alive traffic into the per-epoch total would make a 20001-epoch
  // run incomparable to a 20000-epoch one. Drain-frame cost is attributed
  // separately.
  const auto mac_control_sum = [&] {
    CostUnits sum = 0;
    for (NodeId u = 0; u < topo.size(); ++u) {
      sum += mac->control_tx(u) + mac->control_rx(u);
    }
    return sum;
  };

  if (use_lmac) res.mac_control_total = mac_control_sum();

  if (pending) {
    // Drain: audit the final query after exactly the same query_period-frame
    // dissemination window every mid-run query gets (the loop has already
    // advanced past this time when epochs is a multiple of query_period, in
    // which case this is a no-op).
    sched->run_until((pending->epoch + cfg_.query_period) * frame_ticks - 1);
    finalize_query(*pending, network.collect_outcome(),
                   pending->epoch + cfg_.query_period);
    pending.reset();
  }
  if (use_lmac) res.mac_control_drain = mac_control_sum() - res.mac_control_total;

  res.ledger = network.costs();
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    res.sink_ledgers[t] = network.tree_ledger(t);
  }
  // Marginal maintenance price of the extra trees: everything the k>=1
  // overlays spent on updates and control. Tree 0 is the baseline the
  // single-sink deployment would have paid anyway.
  res.cross_tree_update_overhead = 0;
  for (TreeId t = 1; t < static_cast<TreeId>(n_sinks); ++t) {
    res.cross_tree_update_overhead += res.sink_ledgers[t].update_cost() +
                                      res.sink_ledgers[t].control_cost();
  }
  res.updates_transmitted = network.updates_transmitted();
  res.samples_taken = network.samples_taken();
  res.samples_skipped = network.samples_skipped();
  res.node_tx.resize(network.size());
  res.node_rx.resize(network.size());
  for (NodeId u = 0; u < network.size(); ++u) {
    res.node_tx[u] = network.node_tx(u);
    res.node_rx[u] = network.node_rx(u);
  }
  return res;
}

}  // namespace dirq::core
