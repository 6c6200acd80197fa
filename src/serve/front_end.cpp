#include "serve/front_end.hpp"

#include <stdexcept>
#include <utility>

namespace dirq::serve {

void FrontEndConfig::validate() const {
  if (inject_period <= 0) {
    throw std::invalid_argument("FrontEndConfig: inject_period must be > 0");
  }
  if (max_inject_per_boundary == 0) {
    throw std::invalid_argument(
        "FrontEndConfig: max_inject_per_boundary must be > 0");
  }
  if (max_queue == 0) {
    throw std::invalid_argument("FrontEndConfig: max_queue must be > 0");
  }
  if (cache_enabled && cache_entries == 0) {
    throw std::invalid_argument("FrontEndConfig: cache_entries must be > 0");
  }
  if (stale_epochs < 0) {
    throw std::invalid_argument("FrontEndConfig: stale_epochs must be >= 0");
  }
}

namespace {
// Runs in the member-initializer list, so a bad config is reported with
// FrontEndConfig's message before cache_ is constructed from it.
const FrontEndConfig& validated(const FrontEndConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

FrontEnd::FrontEnd(FrontEndConfig cfg, core::DirqNetwork& network,
                   core::QueryAdmission& admission)
    : cfg_(validated(cfg)),
      network_(network),
      admission_(admission),
      cache_(cfg_.cache_enabled ? cfg_.cache_entries : 1, cfg_.stale_epochs),
      sink_latency_(network.tree_count()),
      sink_injected_(network.tree_count(), 0) {}

void FrontEnd::offer(const Arrival& a) {
  ++totals_.arrived;
  if (queue_.size() >= cfg_.max_queue) {
    ++totals_.shed;
    return;
  }
  queue_.push_back(a);
  const auto depth = static_cast<std::int64_t>(queue_.size());
  if (depth > totals_.peak_queue_depth) totals_.peak_queue_depth = depth;
}

void FrontEnd::on_boundary(std::int64_t epoch) {
  std::size_t budget = cfg_.max_inject_per_boundary;
  while (!queue_.empty()) {
    const Arrival& head = queue_.front();
    const bool cacheable = !head.multi && !head.range.region.has_value();
    if (cacheable && cfg_.cache_enabled) {
      const CacheLookup hit =
          cache_.lookup(head.range.type, head.range.lo, head.range.hi, epoch,
                        network_.updates_transmitted());
      if (hit.kind != CacheLookup::Kind::Miss) {
        record_answer(head, epoch, hit.tree);
        ++totals_.cache_answered;
        queue_.pop_front();
        continue;  // hits never consume the injection budget
      }
    }
    if (budget == 0) break;  // strict FIFO: nothing overtakes the head
    --budget;
    if (!cacheable) cache_.note_uncacheable();
    const Arrival a = queue_.front();
    queue_.pop_front();
    inject_and_account(a, epoch);
  }
}

void FrontEnd::inject_and_account(const Arrival& a, std::int64_t epoch) {
  // Same discipline as the batch driver: refresh every sink's load from
  // its ledger mirror, then let admission pick the sink.
  for (TreeId t = 0; t < static_cast<TreeId>(network_.tree_count()); ++t) {
    admission_.sync_load(t, network_.tree_ledger(t).total());
  }
  const TreeId routed = admission_.route();
  if (on_injected_) on_injected_(routed, epoch);
  core::QueryOutcome outcome;
  if (a.multi) {
    query::MultiQuery q = a.multi_q;
    q.id = next_id_++;
    q.epoch = epoch;
    outcome = network_.inject(routed, q, epoch);
  } else {
    query::RangeQuery q = a.range;
    q.id = next_id_++;
    q.epoch = epoch;
    outcome = network_.inject(routed, q, epoch);
    if (cfg_.cache_enabled) capture_entry(q, outcome, epoch);
  }
  admission_.note_cost(routed, outcome.cost);
  ++totals_.injected;
  ++sink_injected_.at(routed);
  record_answer(a, epoch, routed);
}

void FrontEnd::capture_entry(const query::RangeQuery& q,
                             const core::QueryOutcome& outcome,
                             std::int64_t epoch) {
  std::vector<CachedSource> sources;
  sources.reserve(outcome.believed_sources.size());
  for (NodeId n : outcome.believed_sources) {
    const core::RangeTable* table = network_.node(n).table(outcome.tree, q.type);
    if (table == nullptr || !table->own().has_value()) {
      // A believed source always holds an own tuple right after the
      // instant-transport audit; if that invariant ever fails the entry
      // would be unverifiable, so cache nothing rather than a guess.
      return;
    }
    sources.push_back({n, table->own()->min, table->own()->max});
  }
  cache_.insert(q.type, q.lo, q.hi, outcome.tree, epoch,
                network_.updates_transmitted(), std::move(sources));
}

void FrontEnd::record_answer(const Arrival& a, std::int64_t epoch,
                             TreeId tree) {
  const std::int64_t latency = epoch - a.epoch;
  latency_.record(latency);
  sink_latency_.at(tree).record(latency);
  ++totals_.answered;
}

void FrontEnd::notify_churn() { cache_.invalidate_all(); }

}  // namespace dirq::serve
