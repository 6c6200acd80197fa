#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);
using Interval = std::pair<std::int64_t, std::int64_t>;  // [start, end) ns

// Nearest-rank percentile; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<Interval> iv, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

struct SpanIndex {
  std::array<std::vector<const Span*>, kNames> by_name;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;

  explicit SpanIndex(const std::vector<Span>& spans) {
    by_id.reserve(spans.size());
    for (const Span& s : spans) {
      by_name[static_cast<std::size_t>(s.name)].push_back(&s);
      by_id.emplace(s.id, &s);
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
  }

  [[nodiscard]] const std::vector<const Span*>& named(SpanName n) const {
    return by_name[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] double total_s(SpanName n) const {
    double sum = 0.0;
    for (const Span* s : named(n)) sum += s->seconds();
    return sum;
  }

  [[nodiscard]] std::vector<double> durations_us(SpanName n) const {
    std::vector<double> out;
    out.reserve(named(n).size());
    for (const Span* s : named(n)) out.push_back(s->seconds() * 1e6);
    return out;
  }

  // The replica root a span belongs to (sweep cells share query ids).
  [[nodiscard]] std::uint64_t root_of(const Span& s) const {
    const Span* cur = &s;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
    }
    return cur->id;
  }
};

// Per query: its inject span plus, for asynchronous injection, the
// collect_outcome span that closed its audit.
std::vector<double> inject_us(const SpanIndex& idx) {
  std::map<std::pair<std::uint64_t, std::int64_t>, double> per_query;
  for (SpanName n : {SpanName::CoreInject, SpanName::CoreCollect}) {
    for (const Span* s : idx.named(n)) {
      per_query[{idx.root_of(*s), s->arg}] += s->seconds() * 1e6;
    }
  }
  std::vector<double> out;
  out.reserve(per_query.size());
  for (const auto& [key, us] : per_query) out.push_back(us);
  return out;
}

// Epoch wall minus the part of it covered by the epoch's fetch spans (which
// may run on several pool threads at once).
double consume_self_s(const SpanIndex& idx) {
  std::int64_t total = 0;
  for (const Span* e : idx.named(SpanName::CoreEpoch)) {
    std::vector<Interval> iv;
    const auto it = idx.children.find(e->id);
    if (it != idx.children.end()) {
      for (const Span* c : it->second) {
        if (c->name == SpanName::DataFetch) {
          iv.emplace_back(c->start_ns, c->end_ns);
        }
      }
    }
    total += (e->end_ns - e->start_ns) -
             covered_ns(std::move(iv), e->start_ns, e->end_ns);
  }
  return static_cast<double>(total) * 1e-9;
}

// Share of replica wall covered by the replica's top-level spans; reports
// the largest uncovered gaps when the share is below 95 %.
double coverage_pct(const SpanIndex& idx, std::ostream& report) {
  std::int64_t loop_ns = 0;
  std::int64_t covered = 0;
  // (span before, span after) -> (total gap ns, occurrences)
  std::map<std::pair<std::string, std::string>,
           std::pair<std::int64_t, std::int64_t>>
      gaps;
  for (SpanName rn : {SpanName::ReplicaExperiment, SpanName::ReplicaServe}) {
    for (const Span* root : idx.named(rn)) {
      loop_ns += root->end_ns - root->start_ns;
      std::vector<const Span*> kids;
      const auto it = idx.children.find(root->id);
      if (it != idx.children.end()) kids = it->second;
      std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      std::int64_t cursor = root->start_ns;
      std::string before = "(start)";
      for (const Span* k : kids) {
        covered += k->end_ns - k->start_ns;
        auto& g = gaps[{before, span_name(k->name)}];
        g.first += k->start_ns - cursor;
        g.second += 1;
        cursor = k->end_ns;
        before = span_name(k->name);
      }
      auto& g = gaps[{before, "(end)"}];
      g.first += root->end_ns - cursor;
      g.second += 1;
    }
  }
  if (loop_ns <= 0) return 0.0;
  const double pct =
      100.0 * static_cast<double>(covered) / static_cast<double>(loop_ns);
  if (pct < 95.0) {
    report << "# coverage " << pct << " % < 95 %: "
           << static_cast<double>(loop_ns - covered) * 1e-9
           << " s of replica wall outside top-level spans; largest gaps:\n";
    std::vector<std::pair<std::int64_t, std::string>> top;
    for (const auto& [names, g] : gaps) {
      top.emplace_back(g.first, names.first + " -> " + names.second + " (x" +
                                    std::to_string(g.second) + ")");
    }
    std::sort(top.rbegin(), top.rend());
    for (std::size_t i = 0; i < top.size() && i < 5; ++i) {
      report << "#   " << static_cast<double>(top[i].first) * 1e-9 << " s  "
             << top[i].second << "\n";
    }
  }
  return pct;
}

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in, std::ostream& report) {
  const SpanIndex idx(in.spans);
  const LayerTally& t = in.tally;
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  // net / setup
  add("net.topology_build_s", idx.total_s(SpanName::NetTopologyBuild), "s");
  add("data.env_build_s", idx.total_s(SpanName::DataEnvBuild), "s");
  add("core.network_build_s", idx.total_s(SpanName::CoreNetworkBuild), "s");
  // data
  const double fetch_s = idx.total_s(SpanName::DataFetch);
  add("data.advance_s", idx.total_s(SpanName::DataAdvance), "s");
  add("data.fetch_s", fetch_s, "s");
  add("data.readings", static_cast<double>(t.readings), "count");
  add("data.fetch_ns_per_reading",
      t.readings > 0 ? fetch_s * 1e9 / static_cast<double>(t.readings) : 0.0,
      "ns");
  // core epoch
  const std::vector<double> epoch_us = idx.durations_us(SpanName::CoreEpoch);
  add("core.epoch_s", idx.total_s(SpanName::CoreEpoch), "s");
  add("core.epoch_p50_us", percentile(epoch_us, 0.50), "us");
  add("core.epoch_p99_us", percentile(epoch_us, 0.99), "us");
  add("core.consume_self_s", consume_self_s(idx), "s");
  add("core.updates", static_cast<double>(t.updates), "count");
  add("core.update_units", static_cast<double>(t.update_units), "units");
  add("core.ehr_s", idx.total_s(SpanName::CoreEhr), "s");
  add("core.control_units", static_cast<double>(t.control_units), "units");
  add("core.loss_offered", static_cast<double>(t.loss_offered), "count");
  add("core.loss_dropped", static_cast<double>(t.loss_dropped), "count");
  // core query plane
  const std::vector<double> inj_us = inject_us(idx);
  add("core.inject_p50_us", percentile(inj_us, 0.50), "us");
  add("core.inject_p99_us", percentile(inj_us, 0.99), "us");
  add("core.injects", static_cast<double>(t.injects), "count");
  add("core.query_units", static_cast<double>(t.query_units), "units");
  add("core.admission_s", idx.total_s(SpanName::CoreAdmission), "s");
  // query / metrics
  const std::vector<double> inv_us =
      idx.durations_us(SpanName::QueryInvolvement);
  add("query.involvement_p50_us", percentile(inv_us, 0.50), "us");
  add("query.involvement_p99_us", percentile(inv_us, 0.99), "us");
  add("query.workload_s", idx.total_s(SpanName::QueryWorkload), "s");
  add("metrics.audit_s", idx.total_s(SpanName::MetricsAudit), "s");
  // mac
  add("mac.drain_s", idx.total_s(SpanName::MacDrain), "s");
  add("mac.drain_p99_us",
      percentile(idx.durations_us(SpanName::MacDrain), 0.99), "us");
  add("mac.events", static_cast<double>(t.mac_events), "count");
  // serve
  const std::vector<double> boundary_us =
      idx.durations_us(SpanName::ServeBoundary);
  add("serve.trace_s", idx.total_s(SpanName::ServeTrace), "s");
  add("serve.offer_s", idx.total_s(SpanName::ServeOffer), "s");
  add("serve.boundary_p50_us", percentile(boundary_us, 0.50), "us");
  add("serve.boundary_p99_us", percentile(boundary_us, 0.99), "us");
  add("serve.cache_hit_ratio",
      t.cache_lookups > 0 ? static_cast<double>(t.cache_hits) /
                                static_cast<double>(t.cache_lookups)
                          : 0.0,
      "ratio");
  add("serve.injected", static_cast<double>(t.serve_injected), "count");
  add("serve.shed", static_cast<double>(t.serve_shed), "count");
  // sim: the pool, seen from the process around the untraced call
  const PoolUsage& u = in.usage;
  add("sim.cpu_per_wall", u.wall_s > 0 ? u.cpu_s / u.wall_s : 0.0, "ratio");
  add("sim.vol_csw_per_epoch",
      t.epochs > 0 ? u.voluntary_csw / static_cast<double>(t.epochs) : 0.0,
      "1/epoch");
  add("sim.invol_csw", u.involuntary_csw, "count");
  // sweep: cell timings of the untraced SweepRunner call
  const std::vector<double>& cells = in.untraced.cell_wall_s;
  double cell_sum = 0.0;
  for (double c : cells) cell_sum += c;
  const bool sweep = !cells.empty();
  add("sweep.cell_p50_s", percentile(cells, 0.50), "s");
  add("sweep.cell_max_s", percentile(cells, 1.0), "s");
  add("sweep.idle_s",
      sweep ? in.sweep_workers * in.untraced.wall_s - cell_sum : 0.0, "s");
  // the trace itself
  add("trace.overhead_pct", in.overhead_pct, "%");
  add("trace.coverage_pct", coverage_pct(idx, report), "%");

  report << "# per-layer samples: epochs " << epoch_us.size() << ", injects "
         << inj_us.size() << ", involvement " << inv_us.size()
         << ", mac drains " << idx.named(SpanName::MacDrain).size()
         << ", boundaries " << boundary_us.size() << ", fetch spans "
         << idx.named(SpanName::DataFetch).size() << ", spans total "
         << in.spans.size() << "\n";
  return m;
}

}  // namespace perfbench
