// dirqsim — command-line front end for the experiment driver.
//
//   dirqsim [options]
//     --seed N            master seed                      (default 42)
//     --nodes N           network size                     (default 50)
//     --epochs N          sensing epochs                   (default 20000)
//     --query-period N    epochs between queries           (default 20)
//     --relevant F        target involved fraction 0..1    (default 0.4)
//     --loss F            channel drop probability [0,1)   (default 0)
//     --mac NAME          transport: instant | lmac        (default instant)
//     --theta PCT         fixed threshold in % of span     (default: ATC)
//     --atc               adaptive threshold control       (default)
//     --sampling F        enable §8 sampling suppression with margin F
//     --series            also print the per-100-epoch update TSV series
//     --help
//
//   dirqsim sweep [options]   — declarative grid on a worker pool
//     list-valued axis flags (--theta atc,3,5 --relevant 0.2,0.4 ...),
//     --threads N, --json FILE; see `dirqsim sweep --help`.
//
// Prints a run summary (costs, accuracy, cost ratio vs flooding) — the
// one-command way to reproduce any cell of the paper's evaluation grid.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dirq/dirq.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::cout <<
      "dirqsim — run one DirQ experiment (ICPPW'06 reproduction)\n"
      "  --seed N          master seed (default 42)\n"
      "  --nodes N         network size (default 50)\n"
      "  --epochs N        sensing epochs (default 20000)\n"
      "  --query-period N  epochs between queries (default 20)\n"
      "  --relevant F      target involved fraction in (0,1] (default 0.4)\n"
      "  --loss F          channel drop probability in [0,1) (default 0)\n"
      "  --mac NAME        transport backend: instant (default) or lmac\n"
      "                    (queries/updates ride the TDMA slot schedule)\n"
      "  --field NAME      environment backend: pinned (default; the\n"
      "                    golden sequential AR(1) streams) or fast\n"
      "                    (counter-based, O(1) random access — for\n"
      "                    large-topology runs)\n"
      "  --theta PCT       fixed threshold, % of sensor span (default: ATC)\n"
      "  --atc             adaptive threshold control (default mode)\n"
      "  --sinks SPEC      multi-sink query plane: a bare count N (roots\n"
      "                    spread over the field; 1 = the paper's single\n"
      "                    root at node 0, the default) or an explicit\n"
      "                    comma list of node ids (e.g. 0,12,37)\n"
      "  --routing NAME    query admission policy across sinks:\n"
      "                    admission (default; depth x load argmin) or\n"
      "                    roundrobin\n"
      "  --multi-frac F    fraction of queries drawn as multi-attribute\n"
      "                    conjunctions in [0,1] (default 0)\n"
      "  --multi-count N   predicates per multi-attribute query (default 2)\n"
      "  --sampling F      enable sampling suppression, margin F of theta\n"
      "  --burst SPEC      query arrivals: 'smooth' (default) or L/G —\n"
      "                    L-epoch bursts separated by G silent epochs\n"
      "  --threads N       intra-run worker count for the epoch loop\n"
      "                    (default 1 — the whole walk as one chunk; 0 =\n"
      "                    all hardware threads; every width runs the same\n"
      "                    epoch plan, byte-identical to 1 — lmac keeps\n"
      "                    slot delivery sequential and parallelises the\n"
      "                    epoch phases)\n"
      "  --series          print the update-per-100-epoch TSV series\n"
      "  --help            this text\n"
      "\n"
      "subcommand: dirqsim sweep — run a declarative grid of cells on a\n"
      "worker pool (list-valued axis flags, --threads N, --json FILE);\n"
      "see `dirqsim sweep --help`.\n"
      "subcommand: dirqsim serve — long-lived query front-end: open-loop\n"
      "arrivals, admission batching, result cache, latency percentiles;\n"
      "see `dirqsim serve --help`.\n";
  std::exit(code);
}

using UsageFn = void (*)(int);

double parse_double(const char* flag, const char* value,
                    UsageFn on_error = usage) {
  if (value == nullptr) {
    std::cerr << "missing value for " << flag << "\n";
    on_error(2);
  }
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    std::cerr << "bad value for " << flag << ": " << value << "\n";
    on_error(2);
  }
  return 0.0;  // unreachable
}

/// Strict integer parse: the whole token must be a base-10 integer.
/// Fractions ("2.5"), trailing junk ("10x"), and overflow are errors —
/// never silently truncated the way a stod-then-cast would.
std::int64_t parse_int(const char* flag, const char* value,
                       UsageFn on_error = usage) {
  if (value == nullptr) {
    std::cerr << "missing value for " << flag << "\n";
    on_error(2);
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::cerr << flag << " expects an integer, got: " << value << "\n";
    on_error(2);
  }
  return static_cast<std::int64_t>(v);
}

/// parse_int plus a >= 1 check, for counts where 0 or a negative would
/// otherwise wrap through a size_t/uint64_t cast into a huge value.
std::int64_t parse_positive_int(const char* flag, const char* value,
                                UsageFn on_error = usage) {
  const std::int64_t v = parse_int(flag, value, on_error);
  if (v < 1) {
    std::cerr << flag << " must be a positive integer, got: " << value << "\n";
    on_error(2);
  }
  return v;
}

/// Strict unsigned parse covering the full uint64 seed domain (strtoll
/// would reject valid seeds above INT64_MAX). Negatives are an error, not
/// a wrap: strtoull accepts a leading '-', so check for it explicitly.
std::uint64_t parse_uint(const char* flag, const char* value,
                         UsageFn on_error = usage) {
  if (value == nullptr) {
    std::cerr << "missing value for " << flag << "\n";
    on_error(2);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      std::string(value).find('-') != std::string::npos) {
    std::cerr << flag << " expects a non-negative integer, got: " << value
              << "\n";
    on_error(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// Strict environment-backend parse: exactly "pinned" or "fast" (same
/// strictness contract as parse_int — anything else is an error, never a
/// silent default). Shared by the single-run and sweep paths.
dirq::data::EnvironmentBackend parse_field_backend(const char* value,
                                                   UsageFn on_error) {
  const std::string s = value != nullptr ? value : "";
  if (s == "pinned") return dirq::data::EnvironmentBackend::Pinned;
  if (s == "fast") return dirq::data::EnvironmentBackend::Fast;
  std::cerr << "--field must be 'pinned' or 'fast', got: " << s << "\n";
  on_error(2);
  return dirq::data::EnvironmentBackend::Pinned;  // unreachable
}

/// Parses one query-arrival shape: "smooth" (no bursts) or "LENGTH/GAP"
/// in epochs (gap 0 = back-to-back bursts, i.e. smooth with extra steps).
/// Shared by the single-run and sweep paths so the two never drift.
std::pair<std::int64_t, std::int64_t> parse_burst_spec(const std::string& s,
                                                       UsageFn on_error) {
  if (s == "smooth") return {0, 0};
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) {
    std::cerr << "--burst expects 'smooth' or LENGTH/GAP (epochs), got: " << s
              << "\n";
    on_error(2);
  }
  const std::int64_t length = parse_positive_int(
      "--burst length", s.substr(0, slash).c_str(), on_error);
  const std::int64_t gap =
      parse_int("--burst gap", s.substr(slash + 1).c_str(), on_error);
  if (gap < 0) {
    std::cerr << "--burst gap must be >= 0, got: " << s << "\n";
    on_error(2);
  }
  return {length, gap};
}

[[noreturn]] void sweep_usage(int code) {
  std::cout <<
      "dirqsim sweep — run a declarative experiment grid on a worker pool\n"
      "\n"
      "Axis flags take comma-separated lists; the plan is the cartesian\n"
      "product of every axis. Results print in plan order regardless of\n"
      "which thread finished first.\n"
      "  --theta LIST      theta modes: 'atc' and/or fixed percents\n"
      "                    (e.g. atc,3,5,9; default atc)\n"
      "  --relevant LIST   involved fractions in (0,1] (default 0.4)\n"
      "  --seeds LIST      master seeds (default 42)\n"
      "  --loss LIST       drop probabilities in [0,1) (default 0)\n"
      "  --mac LIST        transports: instant,lmac (default instant)\n"
      "  --nodes LIST      network sizes (default 50; sizes beyond 50 use\n"
      "                    density-preserving scaled placement)\n"
      "  --field LIST      environment backends: pinned and/or fast\n"
      "                    (default pinned)\n"
      "  --burst LIST      query-arrival shapes: 'smooth' and/or L/G pairs\n"
      "                    (burst length / gap in epochs, e.g. 200/600)\n"
      "  --sinks LIST      sink counts, roots spread over the field\n"
      "                    (default 1 — the paper's single root)\n"
      "  --paper-grid      the paper's Section-7 grid: theta atc,3,5,9 x\n"
      "                    relevant 0.2,0.4,0.6 (overrides those two axes)\n"
      "  --scale-tier      the large-topology tier: nodes 500,1000,2000\n"
      "                    (overrides --nodes)\n"
      "  --epochs N        sensing epochs per cell (default 20000)\n"
      "  --query-period N  epochs between queries (default 20)\n"
      "  --threads N       worker pool size (default: hardware concurrency)\n"
      "  --json FILE       write the dirq.sweep.v1 JSON document to FILE\n"
      "  --no-timing       omit wall-clock/RSS from the JSON (byte-stable\n"
      "                    across runs and thread counts)\n"
      "  --tsv             also print the grid as a TSV block\n"
      "  --help            this text\n";
  std::exit(code);
}

std::vector<std::string> split_list(const char* flag, const char* value) {
  if (value == nullptr || *value == '\0') {
    std::cerr << "missing value for " << flag << "\n";
    sweep_usage(2);
  }
  const std::size_t len = std::strlen(value);
  if (value[len - 1] == ',') {
    std::cerr << flag << ": trailing comma in list '" << value << "'\n";
    sweep_usage(2);
  }
  std::vector<std::string> out;
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) {
      std::cerr << flag << ": empty element in list '" << value << "'\n";
      sweep_usage(2);
    }
    out.push_back(item);
  }
  if (out.empty()) {
    std::cerr << flag << ": empty list\n";
    sweep_usage(2);
  }
  return out;
}

double parse_list_double(const char* flag, const std::string& item) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(item.c_str(), &end);
  if (end == item.c_str() || *end != '\0' || errno == ERANGE) {
    std::cerr << flag << " expects numbers, got: " << item << "\n";
    sweep_usage(2);
  }
  return v;
}

int run_sweep(int argc, char** argv) {
  using namespace dirq;

  std::vector<std::string> theta_list{"atc"};
  std::vector<double> relevant_list{0.4};
  std::vector<std::uint64_t> seed_list{42};
  std::vector<double> loss_list{0.0};
  std::vector<std::string> mac_list{"instant"};
  std::vector<std::size_t> nodes_list{50};
  std::vector<std::size_t> sinks_list{1};
  std::vector<std::pair<std::int64_t, std::int64_t>> burst_list{{0, 0}};
  std::vector<dirq::data::EnvironmentBackend> field_list{
      dirq::data::EnvironmentBackend::Pinned};
  bool paper = false;
  bool scale_tier = false;
  std::int64_t epochs = 20000;
  std::int64_t query_period = 20;
  unsigned threads = 0;
  std::string json_path;
  bool timing = true;
  bool tsv = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      sweep_usage(0);
    } else if (arg == "--theta") {
      theta_list = split_list("--theta", next);
      ++i;
    } else if (arg == "--relevant") {
      relevant_list.clear();
      for (const std::string& s : split_list("--relevant", next)) {
        relevant_list.push_back(parse_list_double("--relevant", s));
      }
      ++i;
    } else if (arg == "--seeds") {
      seed_list.clear();
      for (const std::string& s : split_list("--seeds", next)) {
        seed_list.push_back(parse_uint("--seeds", s.c_str(), sweep_usage));
      }
      ++i;
    } else if (arg == "--loss") {
      loss_list.clear();
      for (const std::string& s : split_list("--loss", next)) {
        loss_list.push_back(parse_list_double("--loss", s));
      }
      ++i;
    } else if (arg == "--mac") {
      mac_list = split_list("--mac", next);
      ++i;
    } else if (arg == "--nodes") {
      nodes_list.clear();
      for (const std::string& s : split_list("--nodes", next)) {
        nodes_list.push_back(static_cast<std::size_t>(
            parse_positive_int("--nodes", s.c_str(), sweep_usage)));
      }
      ++i;
    } else if (arg == "--sinks") {
      sinks_list.clear();
      for (const std::string& s : split_list("--sinks", next)) {
        sinks_list.push_back(static_cast<std::size_t>(
            parse_positive_int("--sinks", s.c_str(), sweep_usage)));
      }
      ++i;
    } else if (arg == "--burst") {
      burst_list.clear();
      for (const std::string& s : split_list("--burst", next)) {
        burst_list.push_back(parse_burst_spec(s, sweep_usage));
      }
      ++i;
    } else if (arg == "--field") {
      field_list.clear();
      for (const std::string& s : split_list("--field", next)) {
        field_list.push_back(parse_field_backend(s.c_str(), sweep_usage));
      }
      ++i;
    } else if (arg == "--paper-grid") {
      paper = true;
    } else if (arg == "--scale-tier") {
      scale_tier = true;
    } else if (arg == "--epochs") {
      epochs = parse_positive_int("--epochs", next, sweep_usage);
      ++i;
    } else if (arg == "--query-period") {
      query_period = parse_positive_int("--query-period", next, sweep_usage);
      ++i;
    } else if (arg == "--threads") {
      // 0 is meaningful: use hardware concurrency (the documented default).
      const std::int64_t v = parse_int("--threads", next, sweep_usage);
      if (v < 0 || v > 4096) {
        std::cerr << "--threads must be in [0, 4096], got: " << next << "\n";
        sweep_usage(2);
      }
      threads = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--json") {
      if (next == nullptr) {
        std::cerr << "missing value for --json\n";
        sweep_usage(2);
      }
      json_path = next;
      ++i;
    } else if (arg == "--no-timing") {
      timing = false;
    } else if (arg == "--tsv") {
      tsv = true;
    } else {
      std::cerr << "unknown sweep option: " << arg << "\n";
      sweep_usage(2);
    }
  }

  // Axis construction. Every axis is always present (single-valued axes
  // still label their coordinate) so the output schema is uniform.
  sweep::ExperimentPlan plan("dirqsim-sweep", [&] {
    core::ExperimentConfig base = sweep::paper_config(seed_list.front());
    base.epochs = epochs;
    base.query_period = query_period;
    base.keep_records = false;
    return base;
  }());
  if (paper) {
    plan.axis(sweep::paper_theta_axis());
    plan.axis(sweep::paper_relevant_axis());
  } else {
    std::vector<sweep::AxisValue> thetas;
    for (const std::string& t : theta_list) {
      if (t == "atc" || t == "ATC") {
        thetas.push_back(sweep::atc());
      } else {
        const double pct = parse_list_double("--theta", t);
        if (!(pct > 0.0 && pct <= 100.0)) {
          std::cerr << "--theta fixed percents must be in (0, 100]\n";
          return 2;
        }
        thetas.push_back(sweep::fixed_theta(pct));
      }
    }
    plan.axis(sweep::theta_axis(std::move(thetas)));
    for (const double f : relevant_list) {
      if (!(f > 0.0 && f <= 1.0)) {
        std::cerr << "--relevant fractions must be in (0, 1]\n";
        return 2;
      }
    }
    plan.axis(sweep::relevant_axis(relevant_list));
  }
  plan.axis(sweep::seed_axis(seed_list));
  for (const double l : loss_list) {
    if (!(l >= 0.0 && l < 1.0)) {
      std::cerr << "--loss rates must be in [0, 1)\n";
      return 2;
    }
  }
  plan.axis(sweep::loss_axis(loss_list));
  std::vector<core::TransportKind> transports;
  for (const std::string& m : mac_list) {
    if (m == "instant") {
      transports.push_back(core::TransportKind::Instant);
    } else if (m == "lmac") {
      transports.push_back(core::TransportKind::Lmac);
    } else {
      std::cerr << "--mac must list 'instant' and/or 'lmac', got: " << m << "\n";
      return 2;
    }
  }
  plan.axis(sweep::transport_axis(transports));
  plan.axis(scale_tier ? sweep::scale_nodes_axis()
                       : sweep::nodes_axis(nodes_list));
  plan.axis(sweep::sinks_axis(sinks_list));
  plan.axis(sweep::burst_axis(burst_list));
  plan.axis(sweep::field_axis(field_list));

  std::size_t total = 0;
  try {
    total = plan.size();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim sweep: " << e.what() << "\n";
    return 2;
  }

  sweep::SweepOptions opts;
  opts.threads = threads;
  std::size_t done = 0;
  opts.progress = [&done, total](const sweep::PlanCell& cell, bool ok) {
    ++done;
    std::cerr << "[" << done << "/" << total << "] " << cell.label
              << (ok ? "" : "  <failed>") << "\n";
  };

  // Open the JSON target before spending any compute: an unwritable path
  // must fail in milliseconds, not after the whole grid has run.
  sweep::ConsoleTableSink console(std::cout);
  sweep::TsvSink tsv_sink(std::cout);
  std::ofstream json_file;
  std::vector<sweep::ResultSink*> sinks{&console};
  if (tsv) sinks.push_back(&tsv_sink);
  std::optional<sweep::JsonSink> json_sink;
  if (!json_path.empty()) {
    json_file.open(json_path);
    if (!json_file) {
      std::cerr << "dirqsim sweep: cannot open " << json_path
                << " for writing\n";
      return 1;
    }
    json_sink.emplace(json_file, timing);
    sinks.push_back(&*json_sink);
  }

  const sweep::SweepRunner runner(opts);
  std::cerr << "dirqsim sweep: " << total << " cells on "
            << runner.thread_count(total) << " thread(s)\n";
  const std::vector<sweep::CellResult> results = runner.run(plan);

  const sweep::SweepHeader header{
      "dirqsim sweep", plan.name(),
      {"theta", "relevant", "seed", "loss", "mac", "nodes", "sinks", "burst",
       "field", "dirq_total", "flood_total", "ratio", "overshoot_%",
       "coverage_%", "updates"}};
  const sweep::RowMapper mapper = [](const sweep::CellResult& r) {
    const core::ExperimentResults& res = r.results;
    return std::vector<std::string>{
        *r.cell.coordinate("theta"),
        *r.cell.coordinate("relevant"),
        *r.cell.coordinate("seed"),
        *r.cell.coordinate("loss"),
        *r.cell.coordinate("mac"),
        *r.cell.coordinate("nodes"),
        *r.cell.coordinate("sinks"),
        *r.cell.coordinate("burst"),
        *r.cell.coordinate("field"),
        std::to_string(res.ledger.total()),
        std::to_string(res.flooding_total),
        metrics::fmt(res.cost_ratio(), 3),
        metrics::fmt(res.overshoot_pct.mean()),
        metrics::fmt(res.coverage_pct.mean()),
        std::to_string(res.updates_transmitted)};
  };

  sweep::report(header, results, mapper, sinks);
  if (!json_path.empty()) {
    std::cerr << "dirqsim sweep: wrote " << json_path << "\n";
  }

  for (const sweep::CellResult& r : results) {
    if (!r.ok()) {
      std::cerr << "dirqsim sweep: cell '" << r.cell.label
                << "' failed: " << r.error << "\n";
      return 1;
    }
  }
  return 0;
}

[[noreturn]] void serve_usage(int code) {
  std::cout <<
      "dirqsim serve — long-lived query front-end over a live DirQ network\n"
      "\n"
      "A virtual-time pacer advances the network one epoch per virtual\n"
      "second while an open-loop generator pushes query arrivals at the\n"
      "front-end (admission batching + range-result cache). Same config =>\n"
      "byte-identical dirq.serve.v1 JSON, at any --threads value.\n"
      "  --rate R          mean arrivals per epoch (default 10)\n"
      "  --duration E      virtual epochs to run (default 2000)\n"
      "  --arrivals NAME   arrival shape: poisson (default) or burst\n"
      "  --burst L/G       burst window: L arrival epochs, G silent epochs\n"
      "                    (default 50/150; implies --arrivals burst)\n"
      "  --cache MODE      result cache: on (default) or off\n"
      "  --cache-entries N cache capacity, FIFO eviction (default 1024)\n"
      "  --stale N         serve stale entries up to N epochs old after the\n"
      "                    update counter moves (default 64)\n"
      "  --max-inject N    network injections per boundary (default 4);\n"
      "                    cache hits are free and never consume this\n"
      "  --inject-period N epochs between injection boundaries (default 1)\n"
      "  --queue N         arrival queue bound, strict FIFO (default 8192)\n"
      "  --pool N          distinct predicates in the pool (default 32)\n"
      "  --subset-frac F   fraction of arrivals narrowed to the middle half\n"
      "                    of their predicate (default 0.25)\n"
      "  --multi-frac F    multi-attribute (uncacheable) slice in [0,1]\n"
      "  --multi-count N   predicates per multi-attribute query (default 2)\n"
      "  --trace FILE      replay a recorded TSV trace instead of the\n"
      "                    synthetic stream (epoch, type, lo, hi rows)\n"
      "  --pace R          pace to R epochs per wall second (default 0 =\n"
      "                    as fast as possible; never affects results)\n"
      "  --sinks SPEC      sink count or explicit comma list of root ids\n"
      "  --routing NAME    admission (default) or roundrobin\n"
      "  --seed N          master seed (default 42)\n"
      "  --nodes N         network size (default 50)\n"
      "  --relevant F      predicate pool involved fraction (default 0.4)\n"
      "  --theta PCT       fixed threshold, % of span (default: ATC)\n"
      "  --atc             adaptive threshold control (default mode)\n"
      "  --field NAME      environment backend: pinned (default) or fast\n"
      "  --threads N       epoch-loop workers (default 1; 0 = all cores)\n"
      "  --json FILE       write the dirq.serve.v1 JSON document to FILE\n"
      "  --help            this text\n";
  std::exit(code);
}

int run_serve(int argc, char** argv) {
  using namespace dirq;

  serve::ServeConfig cfg;
  cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Atc;
  cfg.exp.keep_records = false;
  std::optional<std::size_t> node_count;
  std::string json_path;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      serve_usage(0);
    } else if (arg == "--rate") {
      cfg.trace.rate = parse_double("--rate", next, serve_usage);
      if (!(cfg.trace.rate > 0.0)) {
        std::cerr << "--rate must be > 0\n";
        return 2;
      }
      ++i;
    } else if (arg == "--duration") {
      cfg.duration_epochs =
          parse_positive_int("--duration", next, serve_usage);
      ++i;
    } else if (arg == "--arrivals") {
      const std::string shape = next != nullptr ? next : "";
      if (shape == "poisson") {
        cfg.trace.shape = serve::ArrivalShape::Poisson;
      } else if (shape == "burst") {
        cfg.trace.shape = serve::ArrivalShape::Burst;
      } else {
        std::cerr << "--arrivals must be 'poisson' or 'burst', got: " << shape
                  << "\n";
        return 2;
      }
      ++i;
    } else if (arg == "--burst") {
      if (next == nullptr) {
        std::cerr << "missing value for --burst\n";
        serve_usage(2);
      }
      const auto [length, gap] = parse_burst_spec(next, serve_usage);
      if (length == 0) {
        std::cerr << "--burst expects LENGTH/GAP for serve (no 'smooth')\n";
        return 2;
      }
      cfg.trace.shape = serve::ArrivalShape::Burst;
      cfg.trace.burst_length_epochs = length;
      cfg.trace.burst_gap_epochs = gap;
      ++i;
    } else if (arg == "--cache") {
      const std::string mode = next != nullptr ? next : "";
      if (mode == "on") {
        cfg.front_end.cache_enabled = true;
      } else if (mode == "off") {
        cfg.front_end.cache_enabled = false;
      } else {
        std::cerr << "--cache must be 'on' or 'off', got: " << mode << "\n";
        return 2;
      }
      ++i;
    } else if (arg == "--cache-entries") {
      cfg.front_end.cache_entries = static_cast<std::size_t>(
          parse_positive_int("--cache-entries", next, serve_usage));
      ++i;
    } else if (arg == "--stale") {
      const std::int64_t v = parse_int("--stale", next, serve_usage);
      if (v < 0) {
        std::cerr << "--stale must be >= 0\n";
        return 2;
      }
      cfg.front_end.stale_epochs = v;
      ++i;
    } else if (arg == "--max-inject") {
      cfg.front_end.max_inject_per_boundary = static_cast<std::size_t>(
          parse_positive_int("--max-inject", next, serve_usage));
      ++i;
    } else if (arg == "--inject-period") {
      cfg.front_end.inject_period =
          parse_positive_int("--inject-period", next, serve_usage);
      ++i;
    } else if (arg == "--queue") {
      cfg.front_end.max_queue = static_cast<std::size_t>(
          parse_positive_int("--queue", next, serve_usage));
      ++i;
    } else if (arg == "--pool") {
      cfg.trace.pool_size = static_cast<std::size_t>(
          parse_positive_int("--pool", next, serve_usage));
      ++i;
    } else if (arg == "--subset-frac") {
      cfg.trace.subset_fraction =
          parse_double("--subset-frac", next, serve_usage);
      ++i;
    } else if (arg == "--multi-frac") {
      cfg.trace.multi_attr_fraction =
          parse_double("--multi-frac", next, serve_usage);
      ++i;
    } else if (arg == "--multi-count") {
      cfg.trace.multi_attr_count = static_cast<std::size_t>(
          parse_positive_int("--multi-count", next, serve_usage));
      ++i;
    } else if (arg == "--trace") {
      if (next == nullptr) {
        std::cerr << "missing value for --trace\n";
        serve_usage(2);
      }
      cfg.replay_path = next;
      ++i;
    } else if (arg == "--pace") {
      cfg.pace_epochs_per_sec = parse_double("--pace", next, serve_usage);
      if (!(cfg.pace_epochs_per_sec >= 0.0)) {
        std::cerr << "--pace must be >= 0\n";
        return 2;
      }
      ++i;
    } else if (arg == "--sinks") {
      const std::string spec = next != nullptr ? next : "";
      if (next == nullptr) {
        std::cerr << "missing value for --sinks\n";
        serve_usage(2);
      }
      cfg.exp.sinks.clear();
      if (spec.find(',') == std::string::npos) {
        cfg.exp.sink_count = static_cast<std::size_t>(
            parse_int("--sinks", next, serve_usage));
      } else {
        std::istringstream in(spec);
        std::string item;
        while (std::getline(in, item, ',')) {
          cfg.exp.sinks.push_back(static_cast<dirq::NodeId>(
              parse_int("--sinks", item.c_str(), serve_usage)));
        }
      }
      ++i;
    } else if (arg == "--routing") {
      const std::string policy = next != nullptr ? next : "";
      if (policy == "admission") {
        cfg.exp.routing = core::RoutingPolicy::Admission;
      } else if (policy == "roundrobin") {
        cfg.exp.routing = core::RoutingPolicy::RoundRobin;
      } else {
        std::cerr << "--routing must be 'admission' or 'roundrobin', got: "
                  << policy << "\n";
        return 2;
      }
      ++i;
    } else if (arg == "--seed") {
      cfg.exp.seed = parse_uint("--seed", next, serve_usage);
      ++i;
    } else if (arg == "--nodes") {
      node_count = static_cast<std::size_t>(
          parse_positive_int("--nodes", next, serve_usage));
      ++i;
    } else if (arg == "--relevant") {
      cfg.exp.relevant_fraction =
          parse_double("--relevant", next, serve_usage);
      ++i;
    } else if (arg == "--theta") {
      cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Fixed;
      cfg.exp.network.fixed_pct = parse_double("--theta", next, serve_usage);
      ++i;
    } else if (arg == "--atc") {
      cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Atc;
    } else if (arg == "--field") {
      cfg.exp.field_backend = parse_field_backend(next, serve_usage);
      ++i;
    } else if (arg == "--threads") {
      const std::int64_t v = parse_int("--threads", next, serve_usage);
      if (v < 0 || v > 4096) {
        std::cerr << "--threads must be in [0, 4096], got: " << next << "\n";
        serve_usage(2);
      }
      cfg.exp.threads = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--json") {
      if (next == nullptr) {
        std::cerr << "missing value for --json\n";
        serve_usage(2);
      }
      json_path = next;
      ++i;
    } else {
      std::cerr << "unknown serve option: " << arg << "\n";
      serve_usage(2);
    }
  }
  if (node_count) {
    cfg.exp.placement = net::scaled_placement(*node_count, cfg.exp.placement);
  }
  if (!(cfg.exp.relevant_fraction > 0.0 && cfg.exp.relevant_fraction <= 1.0)) {
    std::cerr << "--relevant must be in (0, 1]\n";
    return 2;
  }
  if (cfg.exp.network.mode == core::NetworkConfig::ThetaMode::Fixed &&
      !(cfg.exp.network.fixed_pct > 0.0 &&
        cfg.exp.network.fixed_pct <= 100.0)) {
    std::cerr << "--theta must be in (0, 100]\n";
    return 2;
  }

  serve::ServeResults res;
  try {
    res = serve::Server(cfg).run();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim serve: " << e.what() << "\n";
    return 1;
  }

  metrics::Table t({"metric", "value"});
  t.add_row({"mode", cfg.exp.network.mode == core::NetworkConfig::ThetaMode::Atc
                         ? "ATC"
                         : "fixed theta=" +
                               metrics::fmt(cfg.exp.network.fixed_pct, 1) +
                               "%"});
  t.add_row({"field", data::backend_name(cfg.exp.field_backend)});
  t.add_row({"seed", std::to_string(cfg.exp.seed)});
  t.add_row({"nodes", std::to_string(cfg.exp.placement.node_count)});
  t.add_row({"duration (epochs)", std::to_string(res.duration_epochs)});
  if (!cfg.replay_path.empty()) {
    t.add_row({"arrivals", "replay " + cfg.replay_path});
  } else {
    t.add_row({"arrivals",
               std::string(cfg.trace.shape == serve::ArrivalShape::Burst
                               ? "burst"
                               : "poisson") +
                   " @ " + metrics::fmt(cfg.trace.rate, 2) + "/epoch"});
  }
  if (cfg.exp.resolved_sink_count() > 1) {
    std::string roots;
    for (const serve::ServeSinkStats& s : res.sinks) {
      if (!roots.empty()) roots += ',';
      roots += std::to_string(s.root);
    }
    t.add_row({"sinks", std::to_string(res.sinks.size()) + " (roots " +
                            roots + ")"});
    t.add_row({"routing", cfg.exp.routing == core::RoutingPolicy::RoundRobin
                              ? "roundrobin"
                              : "admission"});
  }
  t.add_row({"arrived", std::to_string(res.totals.arrived)});
  t.add_row({"answered", std::to_string(res.totals.answered)});
  t.add_row({"queries/sec (virtual)", metrics::fmt(res.qps(), 3)});
  t.add_row({"injected over network", std::to_string(res.totals.injected)});
  t.add_row({"cache", cfg.front_end.cache_enabled ? "on" : "off"});
  if (cfg.front_end.cache_enabled) {
    const serve::CacheStats& c = res.cache;
    const double hit_rate =
        c.lookups() > 0 ? 100.0 * static_cast<double>(c.hits()) /
                              static_cast<double>(c.lookups())
                        : 0.0;
    t.add_row({"cache hits (fresh/stale)", std::to_string(c.fresh_hits) +
                                               "/" +
                                               std::to_string(c.stale_hits)});
    t.add_row({"cache hit rate %", metrics::fmt(hit_rate, 1)});
    t.add_row({"containment hits", std::to_string(c.containment_hits)});
  }
  t.add_row({"shed (queue full)", std::to_string(res.totals.shed)});
  t.add_row({"peak/final queue depth",
             std::to_string(res.totals.peak_queue_depth) + "/" +
                 std::to_string(res.final_queue_depth)});
  t.add_row({"latency p50/p95/p99 (epochs)",
             std::to_string(res.latency.quantile(0.5)) + "/" +
                 std::to_string(res.latency.quantile(0.95)) + "/" +
                 std::to_string(res.latency.quantile(0.99))});
  if (res.sinks.size() > 1) {
    for (std::size_t k = 0; k < res.sinks.size(); ++k) {
      const metrics::LatencyHistogram& lat = res.sinks[k].latency;
      t.add_row({"sink " + std::to_string(k) + " injected/p99",
                 std::to_string(res.sinks[k].injected) + "/" +
                     std::to_string(lat.quantile(0.99))});
    }
  }
  t.add_row({"update msgs transmitted",
             std::to_string(res.updates_transmitted)});
  t.add_row({"energy total (units)", std::to_string(res.energy_total)});
  t.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "dirqsim serve: cannot open " << json_path
                << " for writing\n";
      return 1;
    }
    serve::write_serve_json(cfg, res, out);
    std::cerr << "dirqsim serve: wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dirq;

  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return run_sweep(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve(argc - 2, argv + 2);
  }

  core::ExperimentConfig cfg;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Atc;
  bool print_series = false;
  std::optional<std::size_t> node_count;  // applied once after parsing

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--seed") {
      cfg.seed = parse_uint("--seed", next);
      ++i;
    } else if (arg == "--nodes") {
      node_count =
          static_cast<std::size_t>(parse_positive_int("--nodes", next));
      ++i;
    } else if (arg == "--epochs") {
      cfg.epochs = parse_positive_int("--epochs", next);
      ++i;
    } else if (arg == "--burst") {
      if (next == nullptr) {
        std::cerr << "missing value for --burst\n";
        usage(2);
      }
      std::tie(cfg.burst_length_epochs, cfg.burst_gap_epochs) =
          parse_burst_spec(next, usage);
      ++i;
    } else if (arg == "--query-period") {
      cfg.query_period = parse_positive_int("--query-period", next);
      ++i;
    } else if (arg == "--mac") {
      const std::string mac = next != nullptr ? next : "";
      if (mac == "instant") {
        cfg.transport = core::TransportKind::Instant;
      } else if (mac == "lmac") {
        cfg.transport = core::TransportKind::Lmac;
      } else {
        std::cerr << "--mac must be 'instant' or 'lmac', got: " << mac << "\n";
        return 2;
      }
      ++i;
    } else if (arg == "--field") {
      cfg.field_backend = parse_field_backend(next, usage);
      ++i;
    } else if (arg == "--relevant") {
      cfg.relevant_fraction = parse_double("--relevant", next);
      ++i;
    } else if (arg == "--loss") {
      cfg.loss_rate = parse_double("--loss", next);
      ++i;
    } else if (arg == "--theta") {
      cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
      cfg.network.fixed_pct = parse_double("--theta", next);
      ++i;
    } else if (arg == "--atc") {
      cfg.network.mode = core::NetworkConfig::ThetaMode::Atc;
    } else if (arg == "--sinks") {
      // A bare integer is a sink count (spread placement); a comma list is
      // explicit root ids. Bounds (count >= 1, ids inside the topology, no
      // duplicates) are enforced by ExperimentConfig::validate so the CLI
      // and library agree on one error surface.
      const std::string spec = next != nullptr ? next : "";
      if (next == nullptr) {
        std::cerr << "missing value for --sinks\n";
        usage(2);
      }
      cfg.sinks.clear();
      if (spec.find(',') == std::string::npos) {
        cfg.sink_count =
            static_cast<std::size_t>(parse_int("--sinks", next));
      } else {
        for (const std::string& s : [&] {
               std::vector<std::string> out;
               std::istringstream in(spec);
               std::string item;
               while (std::getline(in, item, ',')) out.push_back(item);
               return out;
             }()) {
          cfg.sinks.push_back(static_cast<dirq::NodeId>(
              parse_int("--sinks", s.c_str())));
        }
      }
      ++i;
    } else if (arg == "--routing") {
      const std::string policy = next != nullptr ? next : "";
      if (policy == "admission") {
        cfg.routing = core::RoutingPolicy::Admission;
      } else if (policy == "roundrobin") {
        cfg.routing = core::RoutingPolicy::RoundRobin;
      } else {
        std::cerr << "--routing must be 'admission' or 'roundrobin', got: "
                  << policy << "\n";
        return 2;
      }
      ++i;
    } else if (arg == "--multi-frac") {
      cfg.multi_attr_fraction = parse_double("--multi-frac", next);
      ++i;
    } else if (arg == "--multi-count") {
      cfg.multi_attr_count =
          static_cast<std::size_t>(parse_positive_int("--multi-count", next));
      ++i;
    } else if (arg == "--sampling") {
      cfg.network.sampling.enabled = true;
      cfg.network.sampling.margin_frac = parse_double("--sampling", next);
      ++i;
    } else if (arg == "--threads") {
      // 0 is meaningful: all hardware threads (same contract as the
      // sweep's worker-pool flag).
      const std::int64_t v = parse_int("--threads", next);
      if (v < 0 || v > 4096) {
        std::cerr << "--threads must be in [0, 4096], got: " << next << "\n";
        usage(2);
      }
      cfg.threads = static_cast<unsigned>(v);
      ++i;
    } else if (arg == "--series") {
      print_series = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  if (node_count) {
    // Applied once, from the pristine default placement, so repeated
    // --nodes flags are last-one-wins instead of compounding the scaled
    // geometry. Density-preserving scaling kicks in beyond the paper's
    // 50 nodes (see net::scaled_placement).
    cfg.placement = dirq::net::scaled_placement(*node_count, cfg.placement);
  }
  // Negated comparisons so NaN (std::stod("nan")) is rejected too.
  if (!(cfg.relevant_fraction > 0.0 && cfg.relevant_fraction <= 1.0)) {
    std::cerr << "--relevant must be in (0, 1]\n";
    return 2;
  }
  if (!(cfg.loss_rate >= 0.0 && cfg.loss_rate < 1.0)) {
    std::cerr << "--loss must be in [0, 1)\n";
    return 2;
  }
  if (cfg.network.mode == core::NetworkConfig::ThetaMode::Fixed &&
      !(cfg.network.fixed_pct > 0.0 && cfg.network.fixed_pct <= 100.0)) {
    std::cerr << "--theta must be in (0, 100]\n";
    return 2;
  }
  if (cfg.network.sampling.enabled &&
      !(cfg.network.sampling.margin_frac >= 0.0 &&
        cfg.network.sampling.margin_frac <= 1.0)) {
    std::cerr << "--sampling must be in [0, 1]\n";
    return 2;
  }

  cfg.keep_records = false;
  core::ExperimentResults res;
  try {
    res = core::Experiment(cfg).run();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim: " << e.what() << "\n";
    return 1;
  }

  metrics::Table t({"metric", "value"});
  t.add_row({"mode", cfg.network.mode == core::NetworkConfig::ThetaMode::Atc
                         ? "ATC"
                         : "fixed theta=" + metrics::fmt(cfg.network.fixed_pct, 1) + "%"});
  t.add_row({"mac", cfg.transport == core::TransportKind::Lmac ? "lmac"
                                                               : "instant"});
  t.add_row({"field", data::backend_name(cfg.field_backend)});
  t.add_row({"seed", std::to_string(cfg.seed)});
  t.add_row({"epochs", std::to_string(cfg.epochs)});
  if (cfg.loss_rate > 0.0) {
    t.add_row({"loss rate", metrics::fmt(cfg.loss_rate, 2)});
  }
  // Only shown when threads were explicitly requested: the default
  // (--threads 1) keeps the table byte-stable against every recorded
  // golden. The row reports the *effective* count.
  if (cfg.threads != 1) {
    t.add_row({"threads",
               std::to_string(core::Experiment::effective_threads(cfg))});
  }
  // Multi-sink block: every row here is conditional on an explicitly
  // non-default sink/mix configuration, so default output stays byte-stable
  // against every recorded golden.
  if (cfg.resolved_sink_count() > 1) {
    std::string roots;
    for (dirq::NodeId r : res.sink_roots) {
      if (!roots.empty()) roots += ',';
      roots += std::to_string(r);
    }
    t.add_row({"sinks", std::to_string(res.sink_roots.size()) +
                            " (roots " + roots + ")"});
    t.add_row({"routing", cfg.routing == core::RoutingPolicy::RoundRobin
                              ? "roundrobin"
                              : "admission"});
    for (std::size_t k = 0; k < res.sink_ledgers.size(); ++k) {
      t.add_row({"sink " + std::to_string(k) + " total (units)",
                 std::to_string(res.sink_ledgers[k].total()) + "  (" +
                     std::to_string(res.sink_queries[k]) + " queries)"});
    }
    // Injection -> answer latency per sink (virtual epochs): 0 on the
    // instant transport, query_period on LMAC's deferred audits; the
    // serve plane is where queueing spreads this distribution out.
    for (std::size_t k = 0; k < res.sink_query_latency.size(); ++k) {
      const dirq::metrics::LatencyHistogram& lat = res.sink_query_latency[k];
      t.add_row({"sink " + std::to_string(k) + " latency p50/p99 (epochs)",
                 std::to_string(lat.quantile(0.5)) + "/" +
                     std::to_string(lat.quantile(0.99))});
    }
    t.add_row({"sink energy spread", metrics::fmt(res.sink_energy_spread(), 3)});
    t.add_row({"cross-tree overhead (units)",
               std::to_string(res.cross_tree_update_overhead)});
  }
  if (cfg.multi_attr_fraction > 0.0) {
    t.add_row({"multi-attr mix",
               metrics::fmt(cfg.multi_attr_fraction * 100.0, 1) + "% x " +
                   std::to_string(cfg.multi_attr_count) + " predicates"});
  }
  t.add_row({"queries injected", std::to_string(res.queries)});
  t.add_row({"update msgs transmitted", std::to_string(res.updates_transmitted)});
  t.add_row({"query cost (units)", std::to_string(res.ledger.query_cost())});
  t.add_row({"update cost (units)", std::to_string(res.ledger.update_cost())});
  t.add_row({"control cost (units)", std::to_string(res.ledger.control_cost())});
  t.add_row({"DirQ total (units)", std::to_string(res.ledger.total())});
  t.add_row({"flooding total (units)", std::to_string(res.flooding_total)});
  t.add_row({"cost ratio vs flooding", metrics::fmt(res.cost_ratio(), 3)});
  t.add_row({"mean should-receive %", metrics::fmt(res.should_pct.mean())});
  t.add_row({"mean receive %", metrics::fmt(res.receive_pct.mean())});
  t.add_row({"mean overshoot %", metrics::fmt(res.overshoot_pct.mean())});
  t.add_row({"mean coverage %", metrics::fmt(res.coverage_pct.mean())});
  if (cfg.network.sampling.enabled) {
    t.add_row({"samples taken", std::to_string(res.samples_taken)});
    t.add_row({"samples suppressed", std::to_string(res.samples_skipped)});
  }
  t.print(std::cout);

  if (print_series) {
    std::cout << '\n';
    metrics::TsvBlock tsv("update msgs per 100 epochs", {"epoch", "updates"});
    for (std::size_t b = 0; b < res.updates_per_bin.bin_count(); ++b) {
      tsv.add_row({std::to_string(b * 100),
                   metrics::fmt(res.updates_per_bin.bin(b), 0)});
    }
    tsv.print(std::cout);
  }
  return 0;
}
