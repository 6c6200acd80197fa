#include "workloads.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "net/placement.hpp"
#include "serve/server.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/sink.hpp"

namespace perfbench {

namespace core = dirq::core;
namespace serve = dirq::serve;
namespace sweep = dirq::sweep;

namespace {

using Clock = std::chrono::steady_clock;

// Threads of the intra-run engine (serve4, lmac_lossy). Each epoch forks
// and joins, so it waits for its slowest thread: at 4 threads on a 4-vCPU
// shared host, any vCPU the host preempts stalls every epoch, and runs of
// the same code spread by more than the benchmark's bounds. Two threads
// still run the parallel engine and leave the host slack.
constexpr unsigned kEpochThreads = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::ExperimentConfig fast_world(std::size_t nodes, unsigned threads) {
  core::ExperimentConfig cfg;
  cfg.placement = dirq::net::scaled_placement(nodes);
  cfg.field_backend = dirq::data::EnvironmentBackend::Fast;
  cfg.threads = threads;
  return cfg;
}

std::string experiment_error(const core::ExperimentResults& res) {
  return ledger_error(res.ledger, res.sink_ledgers, res.node_tx, res.node_rx);
}

// Serve results carry no ledgers (the traced replica checks those on the
// network itself); what they carry must balance.
std::string serve_error(const serve::ServeResults& res) {
  const auto& t = res.totals;
  if (t.answered != t.injected + t.cache_answered) {
    return "answered != injected + cache_answered";
  }
  if (t.arrived != t.answered + t.shed + res.final_queue_depth) {
    return "arrived != answered + shed + queued";
  }
  std::int64_t injected = 0;
  for (const serve::ServeSinkStats& s : res.sinks) injected += s.injected;
  if (injected != t.injected) return "sum of sink injections != injected";
  if (res.latency.count() != t.answered) return "latency count != answered";
  return {};
}

std::string exception_text() {
  try {
    throw;
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  } catch (...) {
    return "unknown exception";
  }
}

RunResult run_sweep(const WorkloadSpec& spec, std::uint64_t seed,
                    const RunOptions& opts) {
  // sweep::paper_grid(seed) with the run length set by the benchmark.
  core::ExperimentConfig base = sweep::paper_config(seed);
  base.epochs = opts.length;
  base.threads = spec.exp.threads;
  sweep::ExperimentPlan plan("paper-s7-grid", base);
  plan.axis(sweep::paper_theta_axis()).axis(sweep::paper_relevant_axis());

  sweep::SweepOptions so;
  so.threads = opts.sequential ? 1 : spec.workers;
  const sweep::SweepRunner runner(so);
  std::vector<LayerTally> tallies(plan.size());

  RunResult r;
  const Clock::time_point start = Clock::now();
  const auto traced_cell = [&tallies](const sweep::PlanCell& c) {
    return traced_experiment(c.config, static_cast<std::int64_t>(c.index),
                             tallies[c.index]);
  };
  const std::vector<sweep::CellResult> cells =
      opts.traced ? runner.run(plan, traced_cell) : runner.run(plan);
  r.wall_s = seconds_since(start);
  for (const sweep::CellResult& c : cells) {
    UnitResult u;
    u.label = c.cell.label;
    if (c.ok()) {
      u.output = sweep::summarize(c.results);
      u.error = experiment_error(c.results);
    } else {
      u.error = "exception: " + c.error;
    }
    r.units.push_back(std::move(u));
    r.cell_wall_s.push_back(c.wall_seconds);
    const core::ExperimentConfig& cfg = c.cell.config;
    r.node_epochs +=
        static_cast<std::int64_t>(cfg.placement.node_count) * cfg.epochs;
  }
  for (const LayerTally& t : tallies) r.tally.add(t);
  return r;
}

RunResult run_experiment(const WorkloadSpec& spec, std::uint64_t seed,
                         const RunOptions& opts) {
  core::ExperimentConfig cfg = spec.exp;
  cfg.seed = seed;
  cfg.epochs = opts.length;
  if (opts.sequential) cfg.threads = 1;

  RunResult r;
  UnitResult u;
  u.label = spec.name;
  const Clock::time_point start = Clock::now();
  try {
    const core::ExperimentResults res =
        opts.traced ? traced_experiment(cfg, 0, r.tally)
                    : core::Experiment(cfg).run();
    r.wall_s = seconds_since(start);
    u.output = sweep::summarize(res);
    u.error = experiment_error(res);
  } catch (...) {
    r.wall_s = seconds_since(start);
    u.error = exception_text();
  }
  r.units.push_back(std::move(u));
  r.node_epochs =
      static_cast<std::int64_t>(cfg.placement.node_count) * cfg.epochs;
  return r;
}

RunResult run_serve(const WorkloadSpec& spec, std::uint64_t seed,
                    const RunOptions& opts) {
  serve::ServeConfig cfg;
  cfg.exp = spec.exp;
  cfg.exp.seed = seed;
  if (opts.sequential) cfg.exp.threads = 1;
  cfg.duration_epochs = opts.length > 0 ? opts.length : 1;
  cfg.trace.rate = spec.serve_rate;

  RunResult r;
  UnitResult u;
  u.label = spec.name;
  const Clock::time_point start = Clock::now();
  try {
    const serve::ServeResults res = opts.traced ? traced_serve(cfg, r.tally)
                                                : serve::Server(cfg).run();
    r.wall_s = seconds_since(start);
    std::ostringstream os;
    serve::write_serve_json(cfg, res, os);
    u.output = os.str();
    u.error = serve_error(res);
    if (u.error.empty()) u.error = r.tally.ledger_error;
  } catch (...) {
    r.wall_s = seconds_since(start);
    u.error = exception_text();
  }
  r.units.push_back(std::move(u));
  r.node_epochs = static_cast<std::int64_t>(cfg.exp.placement.node_count) *
                  cfg.duration_epochs;
  return r;
}

}  // namespace

const char* entry_point_name(EntryPoint entry) noexcept {
  switch (entry) {
    case EntryPoint::Sweep:
      return "sweep::SweepRunner::run";
    case EntryPoint::Experiment:
      return "core::Experiment::run";
    case EntryPoint::Serve:
      return "serve::Server::run";
  }
  return "?";
}

WorkloadSpec find_workload(const std::string& name, bool tiny) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_grid") {
    // The paper's section 7 grid: 50 nodes, pinned field, instant, lossless,
    // one sink, one thread per cell, cells spread over four sweep workers.
    w.entry = EntryPoint::Sweep;
    w.length = tiny ? 200 : 5000;
    w.workers = 4;
  } else if (name == "serve4") {
    w.entry = EntryPoint::Serve;
    w.exp = fast_world(tiny ? 200 : 1000, kEpochThreads);
    w.exp.sink_count = 4;
    w.exp.routing = core::RoutingPolicy::Admission;
    w.exp.network.fixed_pct = 5.0;
    w.length = tiny ? 100 : 2000;
    w.serve_rate = 100.0;
  } else if (name == "lmac_lossy") {
    w.exp = fast_world(tiny ? 100 : 500, kEpochThreads);
    w.exp.transport = core::TransportKind::Lmac;
    // 64 slots of 16 ticks: still one frame per epoch, and room for every
    // 2-hop neighbourhood. With the default 32 slots, slot election fails
    // on about one 500-node placement seed in 600 (seed 0 among them).
    w.exp.lmac.slots_per_frame = 64;
    w.exp.lmac.ticks_per_slot = 16;
    w.exp.loss_rate = 0.1;
    w.exp.network.mode = core::NetworkConfig::ThetaMode::Atc;
    w.length = tiny ? 100 : 2000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       const RunOptions& opts) {
  switch (spec.entry) {
    case EntryPoint::Sweep:
      return run_sweep(spec, seed, opts);
    case EntryPoint::Experiment:
      return run_experiment(spec, seed, opts);
    case EntryPoint::Serve:
      return run_serve(spec, seed, opts);
  }
  throw std::logic_error("unreachable entry point");
}

}  // namespace perfbench
