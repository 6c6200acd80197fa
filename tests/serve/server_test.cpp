// The serve plane end-to-end: byte-identical dirq.serve.v1 output across
// runs and thread counts, cache answers bitwise-equal to live injection,
// churn invalidation, and bounded overload with monotone tail latency.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "net/placement.hpp"
#include "serve/front_end.hpp"
#include "sim/rng.hpp"

namespace dirq::serve {
namespace {

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.exp.seed = 7;
  cfg.exp.placement.node_count = 30;
  cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.exp.network.fixed_pct = 5.0;
  cfg.exp.keep_records = false;
  cfg.duration_epochs = 400;
  cfg.trace.rate = 10.0;
  return cfg;
}

std::string run_to_json(const ServeConfig& cfg) {
  const ServeResults res = Server(cfg).run();
  std::ostringstream os;
  write_serve_json(cfg, res, os);
  return os.str();
}

TEST(ServeDeterminism, SameConfigSameBytes) {
  const ServeConfig cfg = small_config();
  const std::string a = run_to_json(cfg);
  const std::string b = run_to_json(cfg);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"dirq.serve.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"qps\""), std::string::npos);
  EXPECT_NE(a.find("\"p99\""), std::string::npos);
}

TEST(ServeDeterminism, ThreadCountNeverChangesTheBytes) {
  ServeConfig cfg = small_config();
  const std::string one = run_to_json(cfg);
  cfg.exp.threads = 4;
  const std::string four = run_to_json(cfg);
  EXPECT_EQ(one, four);
}

TEST(ServeDeterminism, DifferentSeedsDiverge) {
  ServeConfig cfg = small_config();
  const std::string a = run_to_json(cfg);
  cfg.exp.seed = 8;
  const std::string b = run_to_json(cfg);
  EXPECT_NE(a, b);
}

TEST(ServeConfigValidation, RejectsUnsupportedBackends) {
  ServeConfig cfg = small_config();
  cfg.exp.transport = core::TransportKind::Lmac;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.exp.loss_rate = 0.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.duration_epochs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// The containment theorem, tested against the live network: a cached
// superset answer filtered by stored tuples must be bitwise-equal to what
// injecting the subset query would have returned, as long as the update
// counter has not moved.
TEST(ServeCacheCorrectness, CachedAnswersMatchLiveInjection) {
  sim::Rng rng(7);
  net::RandomPlacementConfig placement;
  placement.node_count = 30;
  net::Topology topo = net::random_connected(placement, rng);
  data::Environment env(topo, 4, rng.substream("environment"));
  core::NetworkConfig ncfg;
  ncfg.mode = core::NetworkConfig::ThetaMode::Fixed;
  ncfg.fixed_pct = 5.0;
  core::DirqNetwork network(topo, NodeId{0}, ncfg);
  for (std::int64_t e = 0; e < 50; ++e) {
    env.advance_to(e);
    network.process_epoch(env, e);
  }

  const query::RangeQuery wide{1, kSensorTemperature, 15.0, 30.0, 50};
  const core::QueryOutcome wide_out = network.inject(0, wide, 50);
  std::vector<CachedSource> sources;
  for (NodeId n : wide_out.believed_sources) {
    const core::RangeTable* t = network.node(n).table(0, wide.type);
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(t->own().has_value());
    sources.push_back({n, t->own()->min, t->own()->max});
  }
  ResultCache cache(16, 64);
  cache.insert(wide.type, wide.lo, wide.hi, 0, 50,
               network.updates_transmitted(), std::move(sources));

  // Exact re-ask: identical to the captured believed set.
  const CacheLookup same =
      cache.lookup(wide.type, wide.lo, wide.hi, 50,
                   network.updates_transmitted());
  ASSERT_EQ(same.kind, CacheLookup::Kind::Fresh);
  EXPECT_EQ(same.answer(), wide_out.believed_sources);

  // Strict subsets: filtered cached answer == live injection, bitwise
  // (collect_outcome sorts believed_sources, the cache sorts by node).
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {18.0, 27.0}, {15.0, 20.0}, {22.0, 22.5}}) {
    const query::RangeQuery sub{2, kSensorTemperature, lo, hi, 50};
    const core::QueryOutcome live = network.inject(0, sub, 50);
    const CacheLookup hit =
        cache.lookup(sub.type, lo, hi, 50, network.updates_transmitted());
    ASSERT_EQ(hit.kind, CacheLookup::Kind::Fresh) << lo << ".." << hi;
    EXPECT_EQ(hit.answer(), live.believed_sources) << lo << ".." << hi;
  }

  // Once the update counter moves the entry is only Stale — served inside
  // the bound, refused beyond it.
  const std::int64_t updates_before = network.updates_transmitted();
  for (std::int64_t e = 50; e < 80; ++e) {
    env.advance_to(e);
    network.process_epoch(env, e);
  }
  ASSERT_GT(network.updates_transmitted(), updates_before);
  EXPECT_EQ(cache
                .lookup(wide.type, wide.lo, wide.hi, 80,
                        network.updates_transmitted())
                .kind,
            CacheLookup::Kind::Stale);
  EXPECT_EQ(cache
                .lookup(wide.type, wide.lo, wide.hi, 50 + 65,
                        network.updates_transmitted())
                .kind,
            CacheLookup::Kind::Miss);
}

TEST(ServeFrontEnd, ChurnInvalidatesTheCache) {
  sim::Rng rng(7);
  net::RandomPlacementConfig placement;
  placement.node_count = 30;
  net::Topology topo = net::random_connected(placement, rng);
  data::Environment env(topo, 4, rng.substream("environment"));
  core::NetworkConfig ncfg;
  ncfg.mode = core::NetworkConfig::ThetaMode::Fixed;
  ncfg.fixed_pct = 5.0;
  core::DirqNetwork network(topo, NodeId{0}, ncfg);
  env.advance_to(0);
  network.process_epoch(env, 0);
  core::QueryAdmission admission(core::RoutingPolicy::Admission,
                                 network.trees());
  FrontEnd fe(FrontEndConfig{}, network, admission);

  Arrival a;
  a.epoch = 0;
  a.range = query::RangeQuery{0, kSensorTemperature, 10.0, 35.0, 0};
  fe.offer(a);
  fe.on_boundary(0);
  EXPECT_EQ(fe.totals().injected, 1);
  EXPECT_EQ(fe.totals().cache_answered, 0);

  fe.offer(a);
  fe.on_boundary(0);
  EXPECT_EQ(fe.totals().injected, 1);  // served from cache
  EXPECT_EQ(fe.totals().cache_answered, 1);

  fe.notify_churn();
  fe.offer(a);
  fe.on_boundary(0);
  EXPECT_EQ(fe.totals().injected, 2);  // cache was dropped
  EXPECT_EQ(fe.totals().cache_answered, 1);
  EXPECT_EQ(fe.totals().answered, 3);
}

// Each front end reads the outcome inject() returns, so a second front
// end over the same network takes nothing from the first: both inject
// and count.
TEST(ServeFrontEnd, TwoFrontEndsOverOneNetworkBothAnswer) {
  sim::Rng rng(7);
  net::RandomPlacementConfig placement;
  placement.node_count = 20;
  net::Topology topo = net::random_connected(placement, rng);
  data::Environment env(topo, 4, rng.substream("environment"));
  core::NetworkConfig ncfg;
  ncfg.mode = core::NetworkConfig::ThetaMode::Fixed;
  ncfg.fixed_pct = 5.0;
  core::DirqNetwork network(topo, NodeId{0}, ncfg);
  env.advance_to(0);
  network.process_epoch(env, 0);
  core::QueryAdmission admission(core::RoutingPolicy::Admission,
                                 network.trees());
  FrontEnd first(FrontEndConfig{}, network, admission);
  FrontEnd second(FrontEndConfig{}, network, admission);

  Arrival a;
  a.epoch = 0;
  a.range = query::RangeQuery{0, kSensorTemperature, 10.0, 35.0, 0};
  first.offer(a);
  EXPECT_NO_THROW(first.on_boundary(0));
  second.offer(a);
  EXPECT_NO_THROW(second.on_boundary(0));
  for (const FrontEnd* fe : {&first, &second}) {
    EXPECT_EQ(fe->totals().injected, 1);
    EXPECT_EQ(fe->totals().answered, 1);
    EXPECT_EQ(fe->sink_injected(0), 1);
  }
}

// The front-end validates its own config before it builds the cache from
// it, so a bad value is reported in FrontEndConfig's words rather than as
// a ResultCache construction failure.
TEST(ServeFrontEnd, RejectsBadConfigWithFrontEndConfigMessage) {
  sim::Rng rng(7);
  net::RandomPlacementConfig placement;
  placement.node_count = 10;
  net::Topology topo = net::random_connected(placement, rng);
  core::DirqNetwork network(topo, NodeId{0}, core::NetworkConfig{});
  core::QueryAdmission admission(core::RoutingPolicy::Admission,
                                 network.trees());
  const auto message = [&](const FrontEndConfig& cfg) -> std::string {
    try {
      FrontEnd fe(cfg, network, admission);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  FrontEndConfig no_entries;
  no_entries.cache_entries = 0;
  EXPECT_EQ(message(no_entries), "FrontEndConfig: cache_entries must be > 0");
  FrontEndConfig negative_stale;
  negative_stale.cache_enabled = false;
  negative_stale.stale_epochs = -1;
  EXPECT_EQ(message(negative_stale),
            "FrontEndConfig: stale_epochs must be >= 0");
}

TEST(ServeOverload, QueueStaysBoundedAndShedsExcess) {
  ServeConfig cfg = small_config();
  cfg.duration_epochs = 300;
  cfg.trace.rate = 50.0;
  cfg.front_end.cache_enabled = false;
  cfg.front_end.max_inject_per_boundary = 2;
  cfg.front_end.max_queue = 64;
  const ServeResults res = Server(cfg).run();
  EXPECT_GT(res.totals.shed, 0);
  EXPECT_LE(res.totals.peak_queue_depth, 64);
  EXPECT_EQ(res.totals.arrived,
            res.totals.answered + res.totals.shed + res.final_queue_depth);
  // Saturated service: every boundary spends its full budget.
  EXPECT_EQ(res.totals.injected, res.totals.answered);
}

TEST(ServeOverload, TailLatencyIsMonotoneInOfferedRate) {
  std::vector<std::int64_t> p99s;
  for (double rate : {1.0, 20.0, 60.0}) {
    ServeConfig cfg = small_config();
    cfg.duration_epochs = 300;
    cfg.trace.rate = rate;
    cfg.front_end.cache_enabled = false;
    cfg.front_end.max_inject_per_boundary = 2;
    const ServeResults res = Server(cfg).run();
    p99s.push_back(res.latency.quantile(0.99));
  }
  EXPECT_LE(p99s[0], p99s[1]);
  EXPECT_LE(p99s[1], p99s[2]);
  EXPECT_GT(p99s[2], p99s[0]);  // overload must actually show up
}

TEST(ServeCache, CacheOnStrictlyBeatsCacheOffUnderOverload) {
  ServeConfig cfg = small_config();
  cfg.duration_epochs = 300;
  cfg.trace.rate = 40.0;
  cfg.front_end.max_inject_per_boundary = 2;
  cfg.front_end.cache_enabled = true;
  const ServeResults on = Server(cfg).run();
  cfg.front_end.cache_enabled = false;
  const ServeResults off = Server(cfg).run();
  // Identical arrival stream (same seed, cache doesn't touch the trace).
  EXPECT_EQ(on.totals.arrived, off.totals.arrived);
  EXPECT_GT(on.totals.answered, off.totals.answered);
  EXPECT_GT(on.qps(), off.qps());
  EXPECT_GT(on.cache.hits(), 0);
}

TEST(ServeSinks, MultiSinkRunSplitsInjectionAcrossRoots) {
  ServeConfig cfg = small_config();
  cfg.duration_epochs = 300;
  cfg.exp.sink_count = 3;
  cfg.front_end.cache_enabled = false;  // force real injections everywhere
  const ServeResults res = Server(cfg).run();
  ASSERT_EQ(res.sinks.size(), 3u);
  std::int64_t injected = 0, answered = 0;
  std::size_t active_sinks = 0;
  for (const ServeSinkStats& s : res.sinks) {
    injected += s.injected;
    answered += s.latency.count();
    if (s.injected > 0) ++active_sinks;
  }
  EXPECT_EQ(injected, res.totals.injected);
  EXPECT_EQ(answered, res.totals.answered);
  EXPECT_GT(active_sinks, 1u);  // admission actually spreads the load
}

}  // namespace
}  // namespace dirq::serve
