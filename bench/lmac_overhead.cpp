// E10 — LMAC control overhead: the MAC's standing cost against DirQ's data
// cost, per epoch (ROADMAP follow-on from PR 2; not a paper figure — the
// paper's §5 cost model counts data-section messages only, and this bench
// quantifies what the TDMA schedule itself spends underneath them).
//
//   bench_lmac_overhead [--epochs N] [--threads LIST] [--json FILE]
//
// Each cell runs the full experiment on the Lmac transport and reports:
//   * mac_ctl_total     — LMAC control-section tx+rx (slot schedules,
//                         liveness beacons) summed over all nodes: paid
//                         every frame whether or not DirQ transmits,
//                         identical for DirQ and for flooding;
//   * dirq_total        — DirQ's data-section cost (queries + updates +
//                         EHr control);
//   * the per-epoch normalisations and the standing share
//     mac_ctl / (mac_ctl + dirq) — how much of the radio's energy the
//     schedule keeps for itself.
//
// --threads adds a worker-count axis (0 = all hardware threads): LMAC
// runs keep the epoch walk and slot drain on the caller and put only the
// reading fetch on the pool, so every cell's ledger is byte-identical
// across the axis and only wall_seconds moves — the row pairs measure
// what the pool-parallel fetch buys.
//
// Rows are emitted through the sweep result sinks; --json writes the
// dirq.sweep.v1 document (whose metrics block carries mac_control_total).
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dirq;

  std::int64_t epochs = 2000;
  std::vector<unsigned> thread_counts{1};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--epochs" && next != nullptr) {
      epochs = bench::parse_count("bench_lmac_overhead", "--epochs", next);
      ++i;
    } else if (arg == "--threads" && next != nullptr) {
      thread_counts.clear();
      std::string item;
      for (const char* p = next;; ++p) {
        if (*p == ',' || *p == '\0') {
          thread_counts.push_back(static_cast<unsigned>(bench::parse_count(
              "bench_lmac_overhead", "--threads", item, /*min=*/0)));
          item.clear();
          if (*p == '\0') break;
        } else {
          item.push_back(*p);
        }
      }
      ++i;
    } else if (arg == "--json" && next != nullptr) {
      json_path = next;
      ++i;
    } else {
      std::cerr << "usage: bench_lmac_overhead [--epochs N] [--threads LIST]"
                   " [--json FILE]\n";
      return 2;
    }
  }

  bench::print_header(
      "E10 — LMAC standing cost vs DirQ data cost per epoch",
      "ROADMAP 'LMAC control-overhead figure' (PR 2 follow-on)");

  sweep::ExperimentPlan plan("lmac-overhead", [epochs] {
    core::ExperimentConfig cfg = sweep::paper_config();
    cfg.epochs = epochs;
    cfg.transport = core::TransportKind::Lmac;
    cfg.keep_records = false;
    return cfg;
  }());
  plan.axis(sweep::theta_axis({sweep::atc(), sweep::fixed_theta(5.0)}))
      .axis(sweep::nodes_axis({30, 50}));
  {
    std::vector<sweep::AxisValue> workers;
    for (unsigned t : thread_counts) {
      workers.push_back({std::to_string(t),
                         [t](core::ExperimentConfig& cfg) { cfg.threads = t; }});
    }
    plan.axis(sweep::custom_axis("threads", std::move(workers)));
  }

  const std::vector<sweep::CellResult> results =
      sweep::require_ok(sweep::SweepRunner().run(plan));

  const double e = static_cast<double>(epochs);
  const auto mapper = [e](const sweep::CellResult& r) {
    const core::ExperimentResults& res = r.results;
    const auto mac_ctl = static_cast<double>(res.mac_control_total);
    const auto dirq = static_cast<double>(res.ledger.total());
    return std::vector<std::string>{
        *r.cell.coordinate("theta"),
        *r.cell.coordinate("nodes"),
        *r.cell.coordinate("threads"),
        std::to_string(res.mac_control_total),
        std::to_string(res.ledger.total()),
        metrics::fmt(mac_ctl / e, 1),
        metrics::fmt(dirq / e, 1),
        metrics::fmt(mac_ctl + dirq > 0.0 ? 100.0 * mac_ctl / (mac_ctl + dirq)
                                          : 0.0)};
  };

  const sweep::SweepHeader header{
      "LMAC standing cost vs DirQ data cost", plan.name(),
      {"mode", "nodes", "threads", "mac_ctl_total", "dirq_total",
       "mac_ctl_per_epoch", "dirq_per_epoch", "standing_share_%"}};

  sweep::ConsoleTableSink console(std::cout);
  std::ofstream json_file;
  std::vector<sweep::ResultSink*> sinks{&console};
  std::optional<sweep::JsonSink> json_sink;
  if (!json_path.empty()) {
    json_file.open(json_path);
    if (!json_file) {
      std::cerr << "bench_lmac_overhead: cannot open " << json_path << "\n";
      return 1;
    }
    json_sink.emplace(json_file, /*include_timing=*/false);
    sinks.push_back(&*json_sink);
  }
  sweep::report(header, results, mapper, sinks);
  if (!json_path.empty()) {
    std::cerr << "bench_lmac_overhead: wrote " << json_path << "\n";
  }
  return 0;
}
