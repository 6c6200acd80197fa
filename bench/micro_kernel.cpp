// E8 — microbenchmarks (google-benchmark): throughput of the substrate
// primitives the figure runs lean on. Not a paper figure; engineering due
// diligence for the simulation kernel.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/gate_scan.hpp"
#include "core/network.hpp"
#include "core/range_table.hpp"
#include "data/fast_field.hpp"
#include "data/field_model.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "sim/counter_rng.hpp"
#include "net/spatial_index.hpp"
#include "net/topology.hpp"
#include "query/workload.hpp"
#include "serve/cache.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/thread_pool.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "support/brute_force_adjacency.hpp"

namespace {

using namespace dirq;

void BM_SchedulerScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(s.run_until(999));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleDispatch);

void BM_Mt19937Normal(benchmark::State& state) {
  // The reference the pinned field's draws reproduce bit for bit: a fresh
  // std::normal_distribution per draw on std::mt19937_64. Compare against
  // BM_RngNormals, the in-tree kernel the field actually runs.
  std::mt19937_64 engine(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::normal_distribution<double>(0.0, 1.0)(engine));
  }
}
BENCHMARK(BM_Mt19937Normal);

void BM_RngNormals(benchmark::State& state) {
  // sim::Rng::normals at a batch size of range(0) draws; time per item is
  // time per draw. Batch 1 is Rng::normal.
  sim::Rng rng(1);
  std::vector<double> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.normals(0.0, 1.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngNormals)->Arg(1)->Arg(64)->Arg(264);

void BM_CounterRngNormal(benchmark::State& state) {
  // The fast field model's draw: hash of (stream, counter) — stateless,
  // O(1) random access. Compare against BM_Mt19937Normal.
  const sim::CounterRng rng(1);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal_at(++counter));
  }
}
BENCHMARK(BM_CounterRngNormal);

void BM_RangeTableObserve(benchmark::State& state) {
  core::RangeTable t;
  sim::Rng rng(2);
  double reading = 20.0;
  for (auto _ : state) {
    reading += rng.uniform(-0.5, 0.5);
    benchmark::DoNotOptimize(t.observe(reading, 1.1));
  }
}
BENCHMARK(BM_RangeTableObserve);

void BM_RangeTableAggregate(benchmark::State& state) {
  core::RangeTable t;
  t.observe(20.0, 1.0);
  for (NodeId c = 1; c <= static_cast<NodeId>(state.range(0)); ++c) {
    t.set_child(c, {10.0 + c, 30.0 + c});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.aggregate());
  }
}
BENCHMARK(BM_RangeTableAggregate)->Arg(2)->Arg(8);

void BM_SpatialIndexBuild(benchmark::State& state) {
  // Grid construction over a scaled random placement (Arg = node count) —
  // the cost Topology::rebuild_links pays instead of the O(n^2) scan.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(42);
  const net::RandomPlacementConfig cfg = net::scaled_placement(n);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(rng.uniform(0.0, cfg.area_side));
    ys.push_back(rng.uniform(0.0, cfg.area_side));
  }
  for (auto _ : state) {
    net::SpatialIndex index;
    index.build(xs, ys, cfg.radio_range);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialIndexBuild)->Arg(500)->Arg(2000);

void BM_SpatialIndexQueryVsBruteForce(benchmark::State& state) {
  // One full neighbourhood pass (Arg = node count): grid candidates +
  // exact filter, vs range(1) == 1 selecting the brute-force reference.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool brute = state.range(1) == 1;
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::scaled_placement(n), rng);
  for (auto _ : state) {
    if (brute) {
      benchmark::DoNotOptimize(net::brute_force_adjacency(topo));
    } else {
      // Grid path: rebuilt adjacency via add/kill round-trip is awkward to
      // isolate, so measure the same work rebuild_links does — candidates
      // + distance filter per node.
      std::size_t links = 0;
      std::vector<NodeId> cand;
      net::SpatialIndex index;
      std::vector<double> xs, ys;
      for (const net::Node& node : topo.nodes()) {
        xs.push_back(node.x);
        ys.push_back(node.y);
      }
      index.build(xs, ys, topo.radio_range());
      for (const net::Node& node : topo.nodes()) {
        cand.clear();
        index.candidates(node.x, node.y, cand);
        for (NodeId j : cand) {
          if (j > node.id && topo.distance(node.id, j) <= topo.radio_range()) {
            ++links;
          }
        }
      }
      benchmark::DoNotOptimize(links);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialIndexQueryVsBruteForce)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({2000, 0})
    ->Args({2000, 1});

void BM_RangeTableChildLookupFlat(benchmark::State& state) {
  // Flat (sorted-vector) child-tuple lookup — the shipped representation.
  core::RangeTable t;
  for (NodeId c = 0; c < static_cast<NodeId>(state.range(0)); ++c) {
    t.set_child(c * 3, {10.0 + c, 30.0 + c});
  }
  NodeId probe = 0;
  for (auto _ : state) {
    probe = (probe + 3) % static_cast<NodeId>(state.range(0) * 3);
    benchmark::DoNotOptimize(t.child(probe));
  }
}
BENCHMARK(BM_RangeTableChildLookupFlat)->Arg(4)->Arg(8);

void BM_RangeTableChildLookupMap(benchmark::State& state) {
  // The pre-refactor std::map representation, kept here as the comparison
  // baseline for the flat path above.
  std::map<NodeId, core::RangeEntry> children;
  for (NodeId c = 0; c < static_cast<NodeId>(state.range(0)); ++c) {
    children.insert_or_assign(c * 3, core::RangeEntry{10.0 + c, 30.0 + c});
  }
  NodeId probe = 0;
  for (auto _ : state) {
    probe = (probe + 3) % static_cast<NodeId>(state.range(0) * 3);
    benchmark::DoNotOptimize(children.find(probe));
  }
}
BENCHMARK(BM_RangeTableChildLookupMap)->Arg(4)->Arg(8);

void BM_FieldReadingBatch(benchmark::State& state) {
  // One full epoch of the batch reading plane at 500 nodes x 4 types:
  // advance + one readings() call per type. Arg selects the backend
  // (0 = pinned sequential AR(1), 1 = fast counter-based) — the
  // apples-to-apples cost of the workload generator per epoch.
  const bool fast = state.range(0) == 1;
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::scaled_placement(500), rng);
  const auto env = data::make_environment(
      fast ? data::EnvironmentBackend::Fast : data::EnvironmentBackend::Pinned,
      topo, 4, rng.substream("env"));
  std::vector<NodeId> ids(topo.size());
  for (NodeId u = 0; u < topo.size(); ++u) ids[u] = u;
  std::vector<double> out(topo.size());
  std::int64_t epoch = 0;
  for (auto _ : state) {
    env->advance_to(++epoch);
    for (SensorType t = 0; t < 4; ++t) {
      env->readings(t, ids, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ids.size()) * 4);
}
BENCHMARK(BM_FieldReadingBatch)->Arg(0)->Arg(1);

void BM_FieldEpochAdvance(benchmark::State& state) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  std::int64_t epoch = 0;
  for (auto _ : state) {
    env.advance_to(++epoch);
    benchmark::DoNotOptimize(env.reading(1, kSensorTemperature));
  }
}
BENCHMARK(BM_FieldEpochAdvance);

void BM_QueryInject(benchmark::State& state) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  core::NetworkConfig ncfg;
  core::DirqNetwork net(topo, 0, ncfg);
  env.advance_to(0);
  net.process_epoch(env, 0);
  query::WorkloadGenerator gen(topo, net.tree(), env,
                               query::WorkloadConfig{0.4, 0.02},
                               rng.substream("wl"));
  std::int64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    const query::RangeQuery q = gen.next(epoch);
    benchmark::DoNotOptimize(net.inject(0, q, epoch));
  }
}
BENCHMARK(BM_QueryInject);

void BM_FullEpochLoop(benchmark::State& state) {
  // One sensing epoch of the whole 50-node network (sampling + update
  // propagation) — the inner loop of every figure run.
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  core::NetworkConfig ncfg;
  core::DirqNetwork net(topo, 0, ncfg);
  std::int64_t epoch = -1;
  for (auto _ : state) {
    ++epoch;
    env.advance_to(epoch);
    net.process_epoch(env, epoch);
  }
}
BENCHMARK(BM_FullEpochLoop);

void BM_ParallelEpochShardScaling(benchmark::State& state) {
  // Tree-sharded multi-sink epochs: 4 sinks == 4 shards over 500 nodes on
  // the fast backend, Arg = worker count. The alignas(64) EpochShardCtx
  // keeps shard ledgers off each other's cache lines; on a multi-core
  // host 1 -> 2 -> 4 threads should show wall-clock scaling (the guarded
  // check lives in tools/perf_smoke.sh — this bench is for profiling it).
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::scaled_placement(500), rng);
  data::FastEnvironment env(topo, 4, rng.substream("env"));
  core::NetworkConfig ncfg;
  core::DirqNetwork net(topo, {0, 125, 250, 375}, ncfg);
  net.set_threads(static_cast<unsigned>(state.range(0)));
  std::int64_t epoch = -1;
  for (auto _ : state) {
    ++epoch;
    env.advance_to(epoch);
    net.process_epoch(env, epoch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(topo.size()));
}
BENCHMARK(BM_ParallelEpochShardScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_LmacFrame(benchmark::State& state) {
  // One steady-state LMAC frame (Arg = node count) on 64-slot frames:
  // control sections only, no DirQ traffic. A steady section visits no
  // receiver, so a frame costs its 64 slot events plus one counter bump
  // per node. Items are still control receptions (sum of degrees), so the
  // rate stays comparable with runs from when each frame walked them all.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  net::Topology topo = net::random_connected(net::scaled_placement(n), rng);
  sim::Scheduler sched;
  mac::LmacConfig cfg;
  cfg.slots_per_frame = 64;
  cfg.ticks_per_slot = 16;
  mac::LmacNetwork mac(sched, topo, cfg);
  mac.start();
  SimTime until = cfg.frame_ticks() - 1;
  sched.run_until(until);  // bootstrap frame
  for (auto _ : state) {
    until += cfg.frame_ticks();
    benchmark::DoNotOptimize(sched.run_until(until));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * topo.link_count()));
}
BENCHMARK(BM_LmacFrame)->Arg(50)->Arg(500)->Arg(2000);

void BM_LmacFrameChurn(benchmark::State& state) {
  // BM_LmacFrame under churn: every 8 frames one node dies and the previous
  // victim revives with its old id and position, so deaths, timeout scans,
  // an election and the dirty sections a join causes all run in timed
  // frames. Occupancy views only grow, so each revival claims a slot never
  // used before; the network is rebuilt (untimed, with 8 frames to settle)
  // every 64 frames, long before the 64 slots run out. Items are frames.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  const net::Topology pristine =
      net::random_connected(net::scaled_placement(n), rng);
  mac::LmacConfig cfg;
  cfg.slots_per_frame = 64;
  cfg.ticks_per_slot = 16;
  constexpr std::int64_t kScriptFrames = 64;
  constexpr std::int64_t kChurnEvery = 8;
  std::optional<net::Topology> topo;
  std::optional<sim::Scheduler> sched;
  std::optional<mac::LmacNetwork> mac;
  SimTime until = 0;
  std::int64_t frame = kScriptFrames;  // the first iteration builds
  NodeId victim = kNoNode;
  std::size_t round = 0;
  for (auto _ : state) {
    if (frame == kScriptFrames) {
      state.PauseTiming();
      mac.reset();
      sched.reset();
      topo.emplace(pristine);
      sched.emplace();
      mac.emplace(*sched, *topo, cfg);
      mac->start();
      until = 8 * cfg.frame_ticks() - 1;
      sched->run_until(until);
      frame = 0;
      victim = kNoNode;
      state.ResumeTiming();
    }
    if (frame % kChurnEvery == 0) {
      if (victim != kNoNode) topo->add_node(topo->node(victim));
      victim = static_cast<NodeId>((++round * 7919) % n);
      topo->kill_node(victim);
    }
    until += cfg.frame_ticks();
    benchmark::DoNotOptimize(sched->run_until(until));
    ++frame;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LmacFrameChurn)->Arg(500);

void BM_GateScan(benchmark::State& state) {
  // The sampling-gate sweep at plan scale (4096 slots, ~half due):
  // range(0) == 0 is the two-pass branch-light path (gate_scan_mask is
  // the loop gcc auto-vectorizes at -O3 even on baseline SSE2 — verify
  // with `g++ -O3 -fopt-info-vec` on any TU including gate_scan.hpp);
  // range(0) == 1 is the branchy scalar reference gate_filter_ref.
  const bool branchy = state.range(0) == 1;
  constexpr std::size_t kN = 4096;
  std::vector<std::int64_t> due(kN);
  std::vector<NodeId> nodes(kN);
  sim::Rng rng(7);
  for (std::size_t j = 0; j < kN; ++j) {
    due[j] = rng.uniform_int(0, 20);
    nodes[j] = static_cast<NodeId>(j);
  }
  std::vector<std::uint8_t> mask(kN);
  std::vector<NodeId> out(kN);
  std::vector<std::uint32_t> slots(kN);
  const std::int64_t epoch = 10;
  for (auto _ : state) {
    std::size_t m = 0;
    if (branchy) {
      m = core::gate_filter_ref(due.data(), nodes.data(), 0, kN, epoch,
                                out.data());
    } else {
      core::gate_scan_mask(due.data(), kN, epoch, mask.data());
      m = core::gate_compact(nodes.data(), mask.data(), 0, kN, out.data(),
                             slots.data());
    }
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(slots.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_GateScan)->Arg(0)->Arg(1);

void BM_CacheLookup(benchmark::State& state) {
  // The serve front-end's per-arrival cache probe at serve4's shape: 400
  // entries over 3 types built from a 32-window pool (u^2 popularity
  // skew), 200 stored sources each, queried with pool windows and their
  // middle halves (the containment path). Every entry predates the
  // current update counter and none has expired, so each hit is Stale:
  // the scan runs the whole FIFO looking for a Fresh entry first.
  constexpr std::size_t kEntries = 400;
  constexpr std::size_t kSources = 200;
  constexpr std::size_t kPool = 32;
  sim::Rng rng(11);
  struct Window {
    SensorType type;
    double lo, hi;
  };
  std::vector<Window> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const double lo = rng.uniform(0.0, 30.0);
    pool.push_back({static_cast<SensorType>(i % 3), lo,
                    lo + rng.uniform(2.0, 12.0)});
  }
  const auto pick = [&] {
    const double u = rng.uniform(0.0, 1.0);
    return pool[std::min(static_cast<std::size_t>(u * u * kPool), kPool - 1)];
  };
  serve::ResultCache cache(1024, 1 << 30);
  for (std::size_t e = 0; e < kEntries; ++e) {
    const Window w = pick();
    std::vector<serve::CachedSource> sources;
    for (std::size_t s = 0; s < kSources; ++s) {
      const double c = rng.uniform(w.lo, w.hi);
      sources.push_back({static_cast<NodeId>(s), c - 1.1, c + 1.1});
    }
    cache.insert(w.type, w.lo, w.hi, 0, static_cast<std::int64_t>(e),
                 static_cast<std::int64_t>(e), std::move(sources));
  }
  std::vector<Window> queries;
  for (std::size_t q = 0; q < 1024; ++q) {
    Window w = pick();
    if (rng.bernoulli(0.25)) {
      const double quarter = (w.hi - w.lo) / 4.0;
      w.lo += quarter;
      w.hi -= quarter;
    }
    queries.push_back(w);
  }
  const auto updates_now = static_cast<std::int64_t>(kEntries);
  std::size_t q = 0;
  for (auto _ : state) {
    const Window& w = queries[q++ & 1023];
    const serve::CacheLookup hit =
        cache.lookup(w.type, w.lo, w.hi, updates_now, updates_now);
    benchmark::DoNotOptimize(hit.kind);
    benchmark::DoNotOptimize(hit.tree);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

/// Busy-waits for `d` (a stand-in for a fixed amount of CPU work).
void spin_for(std::chrono::nanoseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

void BM_PoolHandoff(benchmark::State& state) {
  // The epoch rhythm on the pool (Arg = pool size): ~50 us of caller-only
  // work, then a parallel_for of 4 items of ~5 us each. us_per_job is the
  // wall time of the parallel_for alone; worker_share is the fraction of
  // jobs in which a worker thread ran at least one item (a pool whose
  // workers are asleep when the job arrives leaves the caller to do
  // everything and then waits for them anyway).
  sim::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const std::thread::id caller = std::this_thread::get_id();
  std::int64_t jobs = 0;
  std::int64_t shared = 0;
  double job_seconds = 0.0;
  for (auto _ : state) {
    spin_for(std::chrono::microseconds(50));
    std::atomic<bool> worker_ran{false};
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(4, [&](std::size_t) {
      spin_for(std::chrono::microseconds(5));
      if (std::this_thread::get_id() != caller) {
        worker_ran.store(true, std::memory_order_relaxed);
      }
    });
    job_seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    ++jobs;
    shared += worker_ran.load(std::memory_order_relaxed) ? 1 : 0;
  }
  if (jobs > 0) {
    state.counters["us_per_job"] =
        job_seconds / static_cast<double>(jobs) * 1e6;
    state.counters["worker_share"] =
        static_cast<double>(shared) / static_cast<double>(jobs);
  }
}
BENCHMARK(BM_PoolHandoff)->Arg(2)->Arg(4)->UseRealTime();

void BM_Flooding50Nodes(benchmark::State& state) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  core::FloodingScheme flood(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flood.flood_from(0));
  }
}
BENCHMARK(BM_Flooding50Nodes);

void BM_SweepRunnerGrid(benchmark::State& state) {
  // A small §7-shaped grid (2 theta modes × 2 seeds of a 300-epoch,
  // 20-node run) through the sweep runner — measures the orchestration
  // overhead plus the scaling across worker threads (Arg = pool size).
  sweep::ExperimentPlan plan("micro-grid", [] {
    core::ExperimentConfig cfg = sweep::paper_config();
    cfg.placement.node_count = 20;
    cfg.epochs = 300;
    cfg.keep_records = false;
    return cfg;
  }());
  plan.axis(sweep::theta_axis({sweep::atc(), sweep::fixed_theta(5.0)}))
      .axis(sweep::seed_axis({1, 2}));
  sweep::SweepOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  const sweep::SweepRunner runner(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(plan));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SweepRunnerGrid)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
