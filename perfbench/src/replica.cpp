#include "replica.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/flooding.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "data/fast_field.hpp"
#include "net/placement.hpp"
#include "net/tree_set.hpp"
#include "query/rate_predictor.hpp"
#include "query/workload.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace core = dirq::core;
namespace data = dirq::data;
namespace metrics = dirq::metrics;
namespace net = dirq::net;
namespace query = dirq::query;
namespace serve = dirq::serve;
namespace sim = dirq::sim;
using dirq::CostUnits;
using dirq::NodeId;
using dirq::SensorType;
using dirq::SimTime;
using dirq::TreeId;

void LayerTally::add(const LayerTally& o) {
  readings += o.readings;
  updates += o.updates;
  update_units += o.update_units;
  control_units += o.control_units;
  query_units += o.query_units;
  injects += o.injects;
  loss_offered += o.loss_offered;
  loss_dropped += o.loss_dropped;
  mac_events += o.mac_events;
  serve_injected += o.serve_injected;
  serve_shed += o.serve_shed;
  cache_hits += o.cache_hits;
  cache_lookups += o.cache_lookups;
  epochs += o.epochs;
}

std::string LayerTally::exact_counts() const {
  std::ostringstream os;
  os << "readings=" << readings << " updates=" << updates
     << " update_units=" << update_units << " control_units=" << control_units
     << " query_units=" << query_units << " injects=" << injects
     << " loss_offered=" << loss_offered << " loss_dropped=" << loss_dropped
     << " mac_events=" << mac_events << " serve_injected=" << serve_injected
     << " serve_shed=" << serve_shed;
  return os.str();
}

std::string ledger_error(const core::CostLedger& global,
                         std::span<const core::CostLedger> sinks,
                         std::span<const CostUnits> node_tx,
                         std::span<const CostUnits> node_rx) {
  core::CostLedger sum;
  for (const core::CostLedger& l : sinks) {
    sum.query_tx += l.query_tx;
    sum.query_rx += l.query_rx;
    sum.update_tx += l.update_tx;
    sum.update_rx += l.update_rx;
    sum.control_tx += l.control_tx;
    sum.control_rx += l.control_rx;
  }
  if (sum.query_tx != global.query_tx || sum.query_rx != global.query_rx ||
      sum.update_tx != global.update_tx || sum.update_rx != global.update_rx ||
      sum.control_tx != global.control_tx ||
      sum.control_rx != global.control_rx) {
    return "global ledger != sum of sink ledgers";
  }
  CostUnits tx = 0;
  CostUnits rx = 0;
  for (CostUnits v : node_tx) tx += v;
  for (CostUnits v : node_rx) rx += v;
  if (tx != global.query_tx + global.update_tx + global.control_tx) {
    return "sum of node tx != ledger tx";
  }
  if (rx != global.query_rx + global.update_rx + global.control_rx) {
    return "sum of node rx != ledger rx";
  }
  return {};
}

namespace {

// Forwards every call to the wrapped source and times the batch reading
// plane — the epoch's fetch — into data.fetch spans parented to the epoch
// span, counting values in per-thread slots. Both concurrency
// capabilities pass through, so the network picks the same fetch geometry,
// and reads the same values, as it does with the bare source.
class TimingSource final : public data::ReadingSource {
 public:
  explicit TimingSource(data::ReadingSource& inner) : inner_(inner) {}

  void advance_to(std::int64_t epoch) override { inner_.advance_to(epoch); }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    return inner_.reading(node, type);
  }
  void readings(SensorType type, std::span<const NodeId> nodes,
                std::span<double> out) const override {
    const std::int64_t start = now_ns();
    inner_.readings(type, nodes, out);
    record_span(SpanName::DataFetch, start, now_ns(),
                parent_.load(std::memory_order_relaxed),
                epoch_.load(std::memory_order_relaxed));
    slots_[thread_index() % kSlots].values.fetch_add(
        static_cast<std::int64_t>(nodes.size()), std::memory_order_relaxed);
  }
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return inner_.concurrent_type_batches();
  }
  [[nodiscard]] bool concurrent_intra_type_chunks() const noexcept override {
    return inner_.concurrent_intra_type_chunks();
  }
  [[nodiscard]] std::size_t type_count() const override {
    return inner_.type_count();
  }
  [[nodiscard]] std::int64_t epoch() const override { return inner_.epoch(); }

  /// The span (and epoch) the fetches made from now on belong to.
  void set_parent(std::uint64_t span, std::int64_t epoch) {
    parent_.store(span, std::memory_order_relaxed);
    epoch_.store(epoch, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t values() const {
    std::int64_t sum = 0;
    for (const Slot& s : slots_) {
      sum += s.values.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr std::size_t kSlots = 64;
  struct alignas(64) Slot {
    std::atomic<std::int64_t> values{0};
  };

  data::ReadingSource& inner_;
  mutable std::array<Slot, kSlots> slots_{};
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::int64_t> epoch_{-1};
};

std::vector<NodeId> resolve_roots(const core::ExperimentConfig& cfg,
                                  const net::Topology& topo) {
  if (!cfg.sinks.empty()) return cfg.sinks;
  if (cfg.sink_count <= 1) return {0};
  return net::spread_roots(topo, cfg.sink_count);
}

void tally_network(const core::DirqNetwork& network, LayerTally& tally) {
  const core::CostLedger& l = network.costs();
  tally.updates = network.updates_transmitted();
  tally.update_units = l.update_cost();
  tally.control_units = l.control_cost();
  tally.query_units = l.query_cost();
}

}  // namespace

// Mirror of core::Experiment::run (src/core/experiment.cpp). Keep the call
// sequence identical; only spans and tallies are added.
core::ExperimentResults traced_experiment(core::ExperimentConfig cfg,
                                          std::int64_t id, LayerTally& tally) {
  SpanScope root(SpanName::ReplicaExperiment, id);
  cfg.validate();
  sim::Rng rng(cfg.seed);
  net::Topology topo = traced(SpanName::NetTopologyBuild, [&] {
    return net::random_connected(cfg.placement, rng);
  });
  const std::unique_ptr<data::ReadingSource> env_owner =
      traced(SpanName::DataEnvBuild, [&] {
        return data::make_environment(cfg.field_backend, topo,
                                      cfg.placement.sensor_type_count,
                                      rng.substream("environment"));
      });
  data::ReadingSource& env = *env_owner;
  TimingSource fetch(env);
  const std::vector<NodeId> roots = resolve_roots(cfg, topo);
  core::DirqNetwork network = traced(SpanName::CoreNetworkBuild, [&] {
    return core::DirqNetwork(topo, roots, cfg.network);
  });
  const std::size_t n_sinks = network.tree_count();

  const bool use_lmac = cfg.transport == core::TransportKind::Lmac;
  std::optional<core::LossChannel> loss;
  std::optional<sim::Scheduler> sched;
  std::optional<dirq::mac::LmacNetwork> mac;
  std::optional<core::LmacTransport> lmac_transport;
  std::int64_t current_epoch = 0;
  std::set<NodeId> mac_repaired;
  {
    SpanScope s(SpanName::CoreChannelBuild);
    if (cfg.loss_rate > 0.0) {
      loss.emplace(cfg.loss_rate, sim::CounterRng(cfg.seed).substream("loss"));
      network.set_loss(&*loss);
    }
    if (use_lmac) {
      sched.emplace();
      mac.emplace(*sched, topo, cfg.lmac);
      lmac_transport.emplace(*mac, network);
      lmac_transport->mutable_costs() = network.costs();
      network.use_transport(*lmac_transport);
      lmac_transport->set_on_neighbor_lost(
          [&network, &mac_repaired, &current_epoch](NodeId, NodeId dead) {
            if (mac_repaired.insert(dead).second) {
              network.handle_node_death(dead, current_epoch);
            }
          });
      mac->start();
    }
  }

  const unsigned threads = core::Experiment::effective_threads(cfg);
  if (threads > 1) {
    SpanScope s(SpanName::SimPoolBuild);
    network.set_threads(threads);
  }

  query::WorkloadGenerator workload = traced(SpanName::QueryWorkloadBuild, [&] {
    return query::WorkloadGenerator(
        topo, network.tree(), env,
        query::WorkloadConfig{cfg.relevant_fraction, 0.02},
        rng.substream("workload"));
  });
  std::vector<query::QueryRatePredictor> predictors;
  predictors.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors.emplace_back(0.4, cfg.epochs_per_hour);
  }
  core::QueryAdmission admission(cfg.routing, network.trees());
  std::optional<sim::Rng> multi_rng;
  if (cfg.multi_attr_fraction > 0.0) {
    multi_rng.emplace(rng.substream("multi-attr"));
  }
  core::FloodingScheme flooding(topo);

  core::ExperimentResults res;
  res.sink_roots = roots;
  res.sink_ledgers.resize(n_sinks);
  res.sink_queries.assign(n_sinks, 0);
  res.sink_query_latency.resize(n_sinks);
  res.sink_umax_per_hour.resize(n_sinks);
  res.updates_per_bin = sim::TimeSeries(cfg.series_bin);
  network.set_update_hook(
      [&res](std::int64_t epoch) { res.updates_per_bin.record(epoch); });

  struct PendingQuery {
    std::int64_t epoch = 0;
    TreeId tree = 0;
    SensorType type = 0;
    query::Involvement truth;
    std::size_t population = 0;
    CostUnits flooding_cost = 0;
    std::int64_t id = 0;  // query id, tags the query's spans
  };
  std::optional<PendingQuery> pending;

  const auto finalize_query = [&cfg, &res, &admission](
                                  const PendingQuery& p,
                                  const core::QueryOutcome& outcome,
                                  std::int64_t answer_epoch) {
    metrics::QueryAudit audit;
    metrics::QueryAudit source_audit;
    {
      SpanScope s(SpanName::MetricsAudit, p.id);
      audit = metrics::audit_query(p.truth.involved, outcome.received);
      source_audit =
          metrics::audit_query(p.truth.sources, outcome.believed_sources);
    }
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
    admission.note_cost(p.tree, outcome.cost);

    if (cfg.keep_records) {
      core::QueryRecord rec;
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

  const auto collect = [&network](std::int64_t query_id) {
    SpanScope s(SpanName::CoreCollect, query_id);
    return network.collect_outcome();
  };

  const double prior_ehr = static_cast<double>(cfg.epochs_per_hour) /
                           static_cast<double>(cfg.query_period);
  const SimTime frame_ticks = cfg.lmac.frame_ticks();

  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    current_epoch = epoch;
    {
      SpanScope s(SpanName::DataAdvance, epoch);
      env.advance_to(epoch);
    }

    if (epoch % cfg.epochs_per_hour == 0) {
      SpanScope s(SpanName::CoreEhr, epoch);
      for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
        const double ehr =
            predictors[t].completed_hours() > 0
                ? predictors[t].predict_next_hour()
                : prior_ehr / static_cast<double>(n_sinks);
        const double umax = network.broadcast_ehr(t, ehr, epoch);
        res.sink_umax_per_hour[t].push_back(umax);
        if (t == 0) {
          res.umax_per_hour.push_back(umax);
          res.ehr_per_hour.push_back(ehr);
        }
      }
    }

    {
      SpanScope s(SpanName::CoreEpoch, epoch);
      fetch.set_parent(s.id(), epoch);
      network.process_epoch(fetch, epoch);
    }

    if (epoch % cfg.query_period == 0 && epoch > 0) {
      if (pending) {
        finalize_query(*pending, collect(pending->id), epoch);
        pending.reset();
      }
      const bool in_burst =
          cfg.burst_length_epochs <= 0 ||
          epoch % (cfg.burst_length_epochs + cfg.burst_gap_epochs) <
              cfg.burst_length_epochs;
      if (in_burst) {
        TreeId routed = 0;
        {
          SpanScope s(SpanName::CoreAdmission, epoch);
          for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
            admission.sync_load(t, network.tree_ledger(t).total());
          }
          routed = admission.route();
        }
        const net::SpanningTree& sink_tree = network.tree(routed);
        predictors[routed].record_query(epoch);
        PendingQuery p;
        p.epoch = epoch;
        p.tree = routed;
        p.population = sink_tree.size() > 0 ? sink_tree.size() - 1 : 0;
        p.flooding_cost = flooding.analytical_cost();
        // Involvement, then injection — the same order for both query
        // shapes, as in the entry point.
        const auto inject_query = [&](const auto& q) {
          p.id = static_cast<std::int64_t>(q.id);
          p.truth = traced(
              SpanName::QueryInvolvement,
              [&] {
                return query::compute_involvement(q, topo, sink_tree, env);
              },
              p.id);
          ++tally.injects;
          if (use_lmac) {
            {
              SpanScope s(SpanName::CoreInject, p.id);
              network.inject_async(routed, q, epoch);
            }
            pending = std::move(p);
          } else {
            const core::QueryOutcome outcome = traced(
                SpanName::CoreInject,
                [&] { return network.inject(routed, q, epoch); }, p.id);
            finalize_query(p, outcome, epoch);
          }
        };
        const bool is_multi =
            multi_rng && multi_rng->bernoulli(cfg.multi_attr_fraction);
        if (is_multi) {
          const query::MultiQuery q = traced(
              SpanName::QueryWorkload,
              [&] { return workload.next_multi(epoch, cfg.multi_attr_count); },
              epoch);
          p.type = q.predicates.empty() ? 0 : q.predicates.front().type;
          inject_query(q);
        } else {
          const query::RangeQuery q = traced(
              SpanName::QueryWorkload, [&] { return workload.next(epoch); },
              epoch);
          p.type = q.type;
          inject_query(q);
        }
      }
    }

    if (epoch % cfg.series_bin == 0) {
      SpanScope s(SpanName::CoreTheta, epoch);
      res.theta_pct_series.push_back(
          network.mean_theta_pct(dirq::kSensorTemperature));
    }

    if (use_lmac) {
      SpanScope s(SpanName::MacDrain, epoch);
      tally.mac_events += static_cast<std::int64_t>(
          sched->run_until((epoch + 1) * frame_ticks - 1));
    }
  }

  SpanScope results(SpanName::CoreResults);
  const auto mac_control_sum = [&] {
    CostUnits sum = 0;
    for (NodeId u = 0; u < topo.size(); ++u) {
      sum += mac->control_tx(u) + mac->control_rx(u);
    }
    return sum;
  };
  if (use_lmac) res.mac_control_total = mac_control_sum();
  if (pending) {
    {
      SpanScope s(SpanName::MacDrain, pending->epoch + cfg.query_period);
      tally.mac_events += static_cast<std::int64_t>(sched->run_until(
          (pending->epoch + cfg.query_period) * frame_ticks - 1));
    }
    finalize_query(*pending, collect(pending->id),
                   pending->epoch + cfg.query_period);
    pending.reset();
  }
  if (use_lmac) {
    res.mac_control_drain = mac_control_sum() - res.mac_control_total;
  }

  res.ledger = network.costs();
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    res.sink_ledgers[t] = network.tree_ledger(t);
  }
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

  tally_network(network, tally);
  tally.readings = fetch.values();
  tally.epochs = cfg.epochs;
  if (loss) {
    tally.loss_offered = loss->offered();
    tally.loss_dropped = loss->dropped();
  }
  return res;
}

// Mirror of serve::Server::run (src/serve/server.cpp).
serve::ServeResults traced_serve(const serve::ServeConfig& cfg,
                                 LayerTally& tally) {
  SpanScope root(SpanName::ReplicaServe,
                 static_cast<std::int64_t>(cfg.exp.seed));
  cfg.validate();
  if (!cfg.replay_path.empty()) {
    throw std::invalid_argument("traced_serve: replay traces are not mirrored");
  }

  sim::Rng rng(cfg.exp.seed);
  net::Topology topo = traced(SpanName::NetTopologyBuild, [&] {
    return net::random_connected(cfg.exp.placement, rng);
  });
  const std::unique_ptr<data::ReadingSource> env_owner =
      traced(SpanName::DataEnvBuild, [&] {
        return data::make_environment(cfg.exp.field_backend, topo,
                                      cfg.exp.placement.sensor_type_count,
                                      rng.substream("environment"));
      });
  data::ReadingSource& env = *env_owner;
  TimingSource fetch(env);
  const std::vector<NodeId> roots = resolve_roots(cfg.exp, topo);
  core::DirqNetwork network = traced(SpanName::CoreNetworkBuild, [&] {
    return core::DirqNetwork(topo, roots, cfg.exp.network);
  });
  const std::size_t n_sinks = network.tree_count();
  const unsigned threads = core::Experiment::effective_threads(cfg.exp);
  if (threads > 1) {
    SpanScope s(SpanName::SimPoolBuild);
    network.set_threads(threads);
  }

  {
    SpanScope s(SpanName::DataAdvance, 0);
    env.advance_to(0);
  }
  query::WorkloadGenerator workload = traced(SpanName::QueryWorkloadBuild, [&] {
    return query::WorkloadGenerator(
        topo, network.tree(), env,
        query::WorkloadConfig{cfg.exp.relevant_fraction, 0.02},
        rng.substream("workload"));
  });
  serve::TraceGen trace = traced(SpanName::ServeTraceBuild, [&] {
    return serve::TraceGen(cfg.trace, workload, rng.substream("serve-trace"));
  });

  core::QueryAdmission admission(cfg.exp.routing, network.trees());
  serve::FrontEnd front_end(cfg.front_end, network, admission);
  std::vector<query::QueryRatePredictor> predictors;
  predictors.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors.emplace_back(0.4, cfg.exp.epochs_per_hour);
  }
  // The front-end injects from inside on_boundary; its injected hook fires
  // just before each DirqNetwork::inject, so an inject span runs from one
  // hook call to the next, or to the end of the boundary.
  std::int64_t inject_start = -1;
  std::int64_t inject_seq = 0;
  std::uint64_t boundary_span = 0;
  const auto close_inject = [&](std::int64_t now) {
    if (inject_start < 0) return;
    record_span(SpanName::CoreInject, inject_start, now, boundary_span,
                inject_seq);
    inject_start = -1;
  };
  front_end.set_on_injected([&](TreeId tree, std::int64_t epoch) {
    predictors.at(tree).record_query(epoch);
    const std::int64_t now = now_ns();
    close_inject(now);
    inject_start = now;
    ++inject_seq;
  });

  const double prior_ehr =
      cfg.trace.rate * static_cast<double>(cfg.exp.epochs_per_hour);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start = Clock::now();

  std::vector<serve::Arrival> arrivals;
  for (std::int64_t epoch = 0; epoch < cfg.duration_epochs; ++epoch) {
    {
      SpanScope s(SpanName::DataAdvance, epoch);
      env.advance_to(epoch);
    }
    if (epoch % cfg.exp.epochs_per_hour == 0) {
      SpanScope s(SpanName::CoreEhr, epoch);
      for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
        const double ehr =
            predictors[t].completed_hours() > 0
                ? predictors[t].predict_next_hour()
                : prior_ehr / static_cast<double>(n_sinks);
        network.broadcast_ehr(t, ehr, epoch);
      }
    }
    {
      SpanScope s(SpanName::CoreEpoch, epoch);
      fetch.set_parent(s.id(), epoch);
      network.process_epoch(fetch, epoch);
    }
    arrivals.clear();
    {
      SpanScope s(SpanName::ServeTrace, epoch);
      trace.drain_until(epoch, arrivals);
    }
    {
      SpanScope s(SpanName::ServeOffer, epoch);
      for (const serve::Arrival& a : arrivals) front_end.offer(a);
    }
    if (epoch % cfg.front_end.inject_period == 0) {
      SpanScope s(SpanName::ServeBoundary, epoch);
      boundary_span = s.id();
      front_end.on_boundary(epoch);
      close_inject(now_ns());
    }
    if (cfg.pace_epochs_per_sec > 0.0) {
      const auto deadline =
          wall_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(epoch + 1) /
                               cfg.pace_epochs_per_sec));
      std::this_thread::sleep_until(deadline);
    }
  }

  SpanScope results(SpanName::CoreResults);
  serve::ServeResults res;
  res.duration_epochs = cfg.duration_epochs;
  res.totals = front_end.totals();
  res.cache = front_end.cache_stats();
  res.latency = front_end.latency();
  res.sinks.resize(n_sinks);
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    res.sinks[t].root = network.root(t);
    res.sinks[t].injected = front_end.sink_injected(t);
    res.sinks[t].latency = front_end.sink_latency(t);
  }
  res.final_queue_depth = static_cast<std::int64_t>(front_end.queue_depth());
  res.updates_transmitted = network.updates_transmitted();
  res.energy_total = network.costs().total();

  tally_network(network, tally);
  tally.readings = fetch.values();
  tally.epochs = cfg.duration_epochs;
  tally.injects = res.totals.injected;
  tally.serve_injected = res.totals.injected;
  tally.serve_shed = res.totals.shed;
  tally.cache_hits = res.cache.hits();
  tally.cache_lookups = res.cache.lookups();
  std::vector<core::CostLedger> sinks(n_sinks);
  std::vector<CostUnits> tx(network.size());
  std::vector<CostUnits> rx(network.size());
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    sinks[t] = network.tree_ledger(t);
  }
  for (NodeId u = 0; u < network.size(); ++u) {
    tx[u] = network.node_tx(u);
    rx[u] = network.node_rx(u);
  }
  tally.ledger_error = ledger_error(network.costs(), sinks, tx, rx);
  return res;
}

}  // namespace perfbench
