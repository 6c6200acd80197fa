// dirqsim — command-line front end for the experiment driver: the
// one-command way to reproduce any cell of the paper's evaluation grid.
// `dirqsim [sweep|serve] --help` lists each mode's flags.
//
// Every flag of the three modes lives in one table (kFlags), walked by one
// argv loop. Values are strict: the whole token must be the value, reals
// must be finite, and ranges are checked where the value is parsed, so a
// bad flag prints one line to stderr and exits 2 in every mode.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dirq/dirq.hpp"

namespace {

using namespace dirq;
using ThetaMode = core::NetworkConfig::ThetaMode;

enum Mode : unsigned { kRun = 1, kSweep = 2, kServe = 4 };

/// Everything the three modes parse into. Run and serve share `cfg.exp`
/// (run ignores the rest of `cfg`); the sweep keeps its list-valued axes
/// apart and reads only epochs and query_period from `cfg.exp`.
struct Cli {
  Cli() {
    cfg.exp.network.mode = ThetaMode::Atc;
    cfg.exp.keep_records = false;
  }

  serve::ServeConfig cfg;
  std::optional<std::size_t> nodes;  // applied once, after parsing
  std::string json;
  bool series = false;

  std::vector<sweep::AxisValue> thetas{sweep::atc()};
  std::vector<double> relevants{0.4};
  std::vector<std::uint64_t> seeds{42};
  std::vector<double> losses{0.0};
  std::vector<core::TransportKind> macs{core::TransportKind::Instant};
  std::vector<std::size_t> node_counts{50};
  std::vector<std::size_t> sink_counts{1};
  std::vector<std::pair<std::int64_t, std::int64_t>> bursts{{0, 0}};
  std::vector<data::EnvironmentBackend> fields{
      data::EnvironmentBackend::Pinned};
  bool paper_grid = false;
  bool scale_tier = false;
  unsigned workers = 0;  // sweep pool; 0 = hardware concurrency
  bool timing = true;
  bool tsv = false;
};

/// A malformed or out-of-range flag: one stderr line, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One flag value (or one item of a list value) being parsed.
struct Arg {
  const char* flag;
  std::string value;
};

[[noreturn]] void bad(const Arg& a, const std::string& expected) {
  throw UsageError(std::string(a.flag) + " expects " + expected +
                   ", got: '" + a.value + "'");
}

/// A base-10 integer in [lo, hi]: fractions ("2.5"), trailing junk ("10x")
/// and overflow are errors, never truncated.
template <class T = std::int64_t>
T integer(const Arg& a, std::int64_t lo,
          std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(a.value.c_str(), &end, 10);
  if (end == a.value.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi) {
    bad(a, "an integer " +
               (hi == std::numeric_limits<std::int64_t>::max()
                    ? ">= " + std::to_string(lo)
                    : "in [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]"));
  }
  return static_cast<T>(v);
}

/// The full uint64 seed domain (strtoll would reject seeds above
/// INT64_MAX). strtoull wraps a leading '-', so it is rejected outright.
std::uint64_t seed(const Arg& a) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(a.value.c_str(), &end, 10);
  if (end == a.value.c_str() || *end != '\0' || errno == ERANGE ||
      a.value.find('-') != std::string::npos) {
    bad(a, "a non-negative integer");
  }
  return v;
}

struct Interval {
  double lo, hi;
  bool open_lo, open_hi;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Interval kFraction{0, 1, true, false};
constexpr Interval kUnit{0, 1, false, false};
constexpr Interval kLossRate{0, 1, false, true};
constexpr Interval kPercent{0, 100, true, false};
constexpr Interval kPositive{0, kInf, true, true};
constexpr Interval kNonNegative{0, kInf, false, true};

/// A finite real inside `r` ("nan" and "inf" parse but are rejected).
double real(const Arg& a, Interval r) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(a.value.c_str(), &end);
  if (end == a.value.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || !(r.open_lo ? v > r.lo : v >= r.lo) ||
      !(r.open_hi ? v < r.hi : v <= r.hi)) {
    std::ostringstream range;
    range << "a finite number in " << (r.open_lo ? '(' : '[') << r.lo << ", "
          << r.hi << (r.open_hi ? ')' : ']');
    bad(a, range.str());
  }
  return v;
}

double fraction(const Arg& a) { return real(a, kFraction); }
double loss_rate(const Arg& a) { return real(a, kLossRate); }
std::size_t count(const Arg& a) { return integer<std::size_t>(a, 1); }

/// Exactly one of the named options (case-sensitive).
template <class T>
T choice(const Arg& a, std::initializer_list<std::pair<const char*, T>> opts) {
  std::string names;
  for (const auto& [name, value] : opts) {
    if (a.value == name) return value;
    names += (names.empty() ? "'" : " or '") + std::string(name) + "'";
  }
  bad(a, names);
}

/// A comma list, each item parsed by `item`; empty items are errors.
template <class F>
auto list(const Arg& a, F item) {
  std::vector<decltype(item(a))> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = a.value.find(',', start);
    const Arg one{a.flag, a.value.substr(start, comma - start)};
    if (one.value.empty()) bad(a, "a comma list without empty items");
    out.push_back(item(one));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

core::TransportKind transport(const Arg& a) {
  return choice<core::TransportKind>(
      a, {{"instant", core::TransportKind::Instant},
          {"lmac", core::TransportKind::Lmac}});
}

data::EnvironmentBackend backend(const Arg& a) {
  return choice<data::EnvironmentBackend>(
      a, {{"pinned", data::EnvironmentBackend::Pinned},
          {"fast", data::EnvironmentBackend::Fast}});
}

/// "smooth" ({0, 0}) or LENGTH/GAP in epochs, LENGTH >= 1.
std::pair<std::int64_t, std::int64_t> burst(const Arg& a) {
  if (a.value == "smooth") return {0, 0};
  const std::size_t slash = a.value.find('/');
  if (slash == std::string::npos) bad(a, "'smooth' or LENGTH/GAP");
  return {integer({a.flag, a.value.substr(0, slash)}, 1),
          integer({a.flag, a.value.substr(slash + 1)}, 0)};
}

sweep::AxisValue theta_mode(const Arg& a) {
  if (a.value == "atc" || a.value == "ATC") return sweep::atc();
  try {
    return sweep::fixed_theta(real(a, kPercent));
  } catch (const UsageError&) {
    bad(a, "'atc' or a finite number in (0, 100]");
  }
}

/// A bare count (roots spread over the field) or a comma list of root ids.
/// Ids inside the topology and free of duplicates are checked by
/// ExperimentConfig::validate, which knows the final node count.
void set_sinks(Cli& c, const Arg& a) {
  c.cfg.exp.sinks.clear();
  if (a.value.find(',') == std::string::npos) {
    c.cfg.exp.sink_count = count(a);
  } else {
    c.cfg.exp.sinks = list(a, [](const Arg& id) {
      return integer<NodeId>(id, 0, std::numeric_limits<NodeId>::max());
    });
  }
}

struct Flag {
  const char* name;
  const char* meta;  // nullptr: a switch that takes no value
  unsigned modes;
  const char* help;  // '\n' continues under the help column
  void (*set)(Cli&, const Arg&);
};

// A flag whose meaning differs by mode has one entry per meaning.
const Flag kFlags[] = {
    {"--seed", "N", kRun | kServe, "master seed (default 42)",
     [](Cli& c, const Arg& a) { c.cfg.exp.seed = seed(a); }},
    {"--nodes", "N", kRun | kServe, "network size (default 50)",
     [](Cli& c, const Arg& a) { c.nodes = count(a); }},
    {"--epochs", "N", kRun | kSweep, "sensing epochs (default 20000)",
     [](Cli& c, const Arg& a) { c.cfg.exp.epochs = integer(a, 1); }},
    {"--query-period", "N", kRun | kSweep,
     "epochs between queries (default 20)",
     [](Cli& c, const Arg& a) { c.cfg.exp.query_period = integer(a, 1); }},
    {"--relevant", "F", kRun | kServe,
     "target involved fraction in (0, 1] (default 0.4)",
     [](Cli& c, const Arg& a) { c.cfg.exp.relevant_fraction = fraction(a); }},
    {"--loss", "F", kRun, "channel drop probability in [0, 1) (default 0)",
     [](Cli& c, const Arg& a) { c.cfg.exp.loss_rate = loss_rate(a); }},
    {"--mac", "NAME", kRun,
     "transport backend: instant (default) or lmac\n"
     "(queries/updates ride the TDMA slot schedule)",
     [](Cli& c, const Arg& a) { c.cfg.exp.transport = transport(a); }},
    {"--field", "NAME", kRun | kServe,
     "environment backend: pinned (default; the\n"
     "golden sequential AR(1) streams) or fast\n"
     "(counter-based, O(1) random access — for\n"
     "large-topology runs)",
     [](Cli& c, const Arg& a) { c.cfg.exp.field_backend = backend(a); }},
    {"--theta", "PCT", kRun | kServe,
     "fixed threshold, % of sensor span in (0, 100]\n(default: ATC)",
     [](Cli& c, const Arg& a) {
       c.cfg.exp.network.fixed_pct = real(a, kPercent);
       c.cfg.exp.network.mode = ThetaMode::Fixed;
     }},
    {"--atc", nullptr, kRun | kServe,
     "adaptive threshold control (default mode)",
     [](Cli& c, const Arg&) { c.cfg.exp.network.mode = ThetaMode::Atc; }},
    {"--sinks", "SPEC", kRun | kServe,
     "multi-sink query plane: a bare count N (roots\n"
     "spread over the field; 1 = the paper's single\n"
     "root at node 0, the default) or an explicit\n"
     "comma list of node ids (e.g. 0,12,37)",
     set_sinks},
    {"--routing", "NAME", kRun | kServe,
     "query admission across sinks: admission\n"
     "(default; greedy projected-energy routing) or\n"
     "roundrobin",
     [](Cli& c, const Arg& a) {
       c.cfg.exp.routing = choice<core::RoutingPolicy>(
           a, {{"admission", core::RoutingPolicy::Admission},
               {"roundrobin", core::RoutingPolicy::RoundRobin}});
     }},
    {"--multi-frac", "F", kRun,
     "fraction of queries drawn as multi-attribute\n"
     "conjunctions in [0, 1] (default 0)",
     [](Cli& c, const Arg& a) {
       c.cfg.exp.multi_attr_fraction = real(a, kUnit);
     }},
    {"--multi-count", "N", kRun,
     "predicates per multi-attribute query (default 2)",
     [](Cli& c, const Arg& a) { c.cfg.exp.multi_attr_count = count(a); }},
    {"--sampling", "F", kRun,
     "enable sampling suppression, margin F of theta\nin [0, 1]",
     [](Cli& c, const Arg& a) {
       c.cfg.exp.network.sampling.margin_frac = real(a, kUnit);
       c.cfg.exp.network.sampling.enabled = true;
     }},
    {"--burst", "SPEC", kRun,
     "query arrivals: 'smooth' (default) or L/G —\n"
     "L-epoch bursts separated by G silent epochs",
     [](Cli& c, const Arg& a) {
       std::tie(c.cfg.exp.burst_length_epochs, c.cfg.exp.burst_gap_epochs) =
           burst(a);
     }},
    {"--threads", "N", kRun | kServe,
     "epoch-loop workers in [0, 4096] (default 1;\n"
     "0 = all hardware threads); output is\n"
     "byte-identical at every width. LMAC runs keep\n"
     "the walk and slot drain on the caller, and the\n"
     "pool only fetches readings",
     [](Cli& c, const Arg& a) {
       c.cfg.exp.threads = integer<unsigned>(a, 0, 4096);
     }},
    {"--series", nullptr, kRun, "print the update-per-100-epoch TSV series",
     [](Cli& c, const Arg&) { c.series = true; }},

    {"--theta", "LIST", kSweep,
     "theta modes: 'atc' and/or fixed percents\n"
     "(e.g. atc,3,5,9; default atc)",
     [](Cli& c, const Arg& a) { c.thetas = list(a, theta_mode); }},
    {"--relevant", "LIST", kSweep,
     "involved fractions in (0, 1] (default 0.4)",
     [](Cli& c, const Arg& a) { c.relevants = list(a, fraction); }},
    {"--seeds", "LIST", kSweep, "master seeds (default 42)",
     [](Cli& c, const Arg& a) { c.seeds = list(a, seed); }},
    {"--loss", "LIST", kSweep, "drop probabilities in [0, 1) (default 0)",
     [](Cli& c, const Arg& a) { c.losses = list(a, loss_rate); }},
    {"--mac", "LIST", kSweep, "transports: instant,lmac (default instant)",
     [](Cli& c, const Arg& a) { c.macs = list(a, transport); }},
    {"--nodes", "LIST", kSweep,
     "network sizes (default 50; sizes beyond 50 use\n"
     "density-preserving scaled placement)",
     [](Cli& c, const Arg& a) { c.node_counts = list(a, count); }},
    {"--field", "LIST", kSweep,
     "environment backends: pinned and/or fast\n(default pinned)",
     [](Cli& c, const Arg& a) { c.fields = list(a, backend); }},
    {"--burst", "LIST", kSweep,
     "query-arrival shapes: 'smooth' and/or L/G pairs\n"
     "(burst length / gap in epochs, e.g. 200/600)",
     [](Cli& c, const Arg& a) { c.bursts = list(a, burst); }},
    {"--sinks", "LIST", kSweep,
     "sink counts, roots spread over the field\n"
     "(default 1 — the paper's single root)",
     [](Cli& c, const Arg& a) { c.sink_counts = list(a, count); }},
    {"--paper-grid", nullptr, kSweep,
     "the paper's Section-7 grid: theta atc,3,5,9 x\n"
     "relevant 0.2,0.4,0.6 (overrides those two axes)",
     [](Cli& c, const Arg&) { c.paper_grid = true; }},
    {"--scale-tier", nullptr, kSweep,
     "the large-topology tier: nodes 500,1000,2000\n(overrides --nodes)",
     [](Cli& c, const Arg&) { c.scale_tier = true; }},
    {"--threads", "N", kSweep,
     "worker pool size in [0, 4096] (default 0:\nhardware concurrency)",
     [](Cli& c, const Arg& a) { c.workers = integer<unsigned>(a, 0, 4096); }},
    {"--json", "FILE", kSweep | kServe,
     "write the mode's JSON document to FILE\n"
     "(dirq.sweep.v1 or dirq.serve.v1)",
     [](Cli& c, const Arg& a) { c.json = a.value; }},
    {"--no-timing", nullptr, kSweep,
     "omit wall-clock/RSS from the JSON (byte-stable\n"
     "across runs and thread counts)",
     [](Cli& c, const Arg&) { c.timing = false; }},
    {"--tsv", nullptr, kSweep, "also print the grid as a TSV block",
     [](Cli& c, const Arg&) { c.tsv = true; }},

    {"--rate", "R", kServe, "mean arrivals per epoch, > 0 (default 10)",
     [](Cli& c, const Arg& a) { c.cfg.trace.rate = real(a, kPositive); }},
    {"--duration", "E", kServe, "virtual epochs to run (default 2000)",
     [](Cli& c, const Arg& a) { c.cfg.duration_epochs = integer(a, 1); }},
    {"--arrivals", "NAME", kServe, "arrival shape: poisson (default) or burst",
     [](Cli& c, const Arg& a) {
       c.cfg.trace.shape = choice<serve::ArrivalShape>(
           a, {{"poisson", serve::ArrivalShape::Poisson},
               {"burst", serve::ArrivalShape::Burst}});
     }},
    {"--burst", "L/G", kServe,
     "burst window: L arrival epochs, G silent epochs\n"
     "(default 50/150; implies --arrivals burst)",
     [](Cli& c, const Arg& a) {
       const auto [length, gap] = burst(a);
       if (length == 0) bad(a, "LENGTH/GAP");
       c.cfg.trace.burst_length_epochs = length;
       c.cfg.trace.burst_gap_epochs = gap;
       c.cfg.trace.shape = serve::ArrivalShape::Burst;
     }},
    {"--cache", "MODE", kServe, "result cache: on (default) or off",
     [](Cli& c, const Arg& a) {
       c.cfg.front_end.cache_enabled =
           choice<bool>(a, {{"on", true}, {"off", false}});
     }},
    {"--cache-entries", "N", kServe,
     "cache capacity, FIFO eviction (default 1024)",
     [](Cli& c, const Arg& a) { c.cfg.front_end.cache_entries = count(a); }},
    {"--stale", "N", kServe,
     "serve stale entries up to N epochs old after the\n"
     "update counter moves (default 64)",
     [](Cli& c, const Arg& a) {
       c.cfg.front_end.stale_epochs = integer(a, 0);
     }},
    {"--max-inject", "N", kServe,
     "network injections per boundary (default 4);\n"
     "cache hits are free and never consume this",
     [](Cli& c, const Arg& a) {
       c.cfg.front_end.max_inject_per_boundary = count(a);
     }},
    {"--inject-period", "N", kServe,
     "epochs between injection boundaries (default 1)",
     [](Cli& c, const Arg& a) {
       c.cfg.front_end.inject_period = integer(a, 1);
     }},
    {"--queue", "N", kServe, "arrival queue bound, strict FIFO (default 8192)",
     [](Cli& c, const Arg& a) { c.cfg.front_end.max_queue = count(a); }},
    {"--pool", "N", kServe, "distinct predicates in the pool (default 32)",
     [](Cli& c, const Arg& a) { c.cfg.trace.pool_size = count(a); }},
    {"--subset-frac", "F", kServe,
     "fraction of arrivals narrowed to the middle half\n"
     "of their predicate, in [0, 1] (default 0.25)",
     [](Cli& c, const Arg& a) {
       c.cfg.trace.subset_fraction = real(a, kUnit);
     }},
    {"--multi-frac", "F", kServe,
     "multi-attribute (uncacheable) slice in [0, 1]\n(default 0)",
     [](Cli& c, const Arg& a) {
       c.cfg.trace.multi_attr_fraction = real(a, kUnit);
     }},
    {"--multi-count", "N", kServe,
     "predicates per multi-attribute query (default 2)",
     [](Cli& c, const Arg& a) { c.cfg.trace.multi_attr_count = count(a); }},
    {"--trace", "FILE", kServe,
     "replay a recorded TSV trace instead of the\n"
     "synthetic stream (epoch, type, lo, hi rows)",
     [](Cli& c, const Arg& a) { c.cfg.replay_path = a.value; }},
    {"--pace", "R", kServe,
     "pace to R epochs per wall second (default 0 =\n"
     "as fast as possible; never affects results)",
     [](Cli& c, const Arg& a) {
       c.cfg.pace_epochs_per_sec = real(a, kNonNegative);
     }},
};

struct ModeInfo {
  Mode mode;
  const char* word;  // argv[1] that selects the mode; nullptr for run
  const char* prog;
  const char* header;
  const char* footer;
};

const ModeInfo kModes[] = {
    {kRun, nullptr, "dirqsim",
     "dirqsim — run one DirQ experiment (ICPPW'06 reproduction)\n",
     "\n"
     "subcommand: dirqsim sweep — run a declarative grid of cells on a\n"
     "worker pool (list-valued axis flags, --threads N, --json FILE);\n"
     "see `dirqsim sweep --help`.\n"
     "subcommand: dirqsim serve — long-lived query front-end: open-loop\n"
     "arrivals, admission batching, result cache, latency percentiles;\n"
     "see `dirqsim serve --help`.\n"},
    {kSweep, "sweep", "dirqsim sweep",
     "dirqsim sweep — run a declarative experiment grid on a worker pool\n"
     "\n"
     "Axis flags take comma-separated lists; the plan is the cartesian\n"
     "product of every axis. Results print in plan order regardless of\n"
     "which thread finished first.\n",
     ""},
    {kServe, "serve", "dirqsim serve",
     "dirqsim serve — long-lived query front-end over a live DirQ network\n"
     "\n"
     "A virtual-time pacer advances the network one epoch per virtual\n"
     "second while an open-loop generator pushes query arrivals at the\n"
     "front-end (admission batching + range-result cache). Same config =>\n"
     "byte-identical dirq.serve.v1 JSON, at any --threads value.\n",
     ""},
};

void print_help(const ModeInfo& m) {
  std::cout << m.header;
  for (const Flag& f : kFlags) {
    if ((f.modes & m.mode) == 0) continue;
    const std::string head = f.meta != nullptr
                                 ? std::string(f.name) + " " + f.meta
                                 : std::string(f.name);
    std::cout << "  " << std::left << std::setw(18) << head;
    for (const char* p = f.help; *p != '\0'; ++p) {
      std::cout << *p;
      if (*p == '\n') std::cout << std::string(20, ' ');
    }
    std::cout << '\n';
  }
  std::cout << "  --help            this text\n" << m.footer;
}

/// Applies argv's flags to `c` in order (a repeated flag's last value
/// wins). Returns false after printing the help.
bool parse(const ModeInfo& m, int argc, char** argv, Cli& c) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(m);
      return false;
    }
    const Flag* f = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& x) {
          return (x.modes & m.mode) != 0 && arg == x.name;
        });
    if (f == std::end(kFlags)) {
      throw UsageError("unknown option " + arg + " (see " + m.prog +
                       " --help)");
    }
    Arg a{f->name, ""};
    if (f->meta != nullptr) {
      if (++i == argc) throw UsageError(arg + " expects a value");
      a.value = argv[i];
    }
    f->set(c, a);
  }
  if (c.nodes) {
    // From the pristine default placement, so repeated --nodes flags do
    // not compound the scaled geometry. Density-preserving scaling kicks
    // in beyond the paper's 50 nodes (see net::scaled_placement).
    c.cfg.exp.placement = net::scaled_placement(*c.nodes, c.cfg.exp.placement);
  }
  return true;
}

/// Opens --json's target before any compute: an unwritable path must fail
/// in milliseconds, not after the whole run.
bool open_json(const Cli& c, std::ofstream& out, const char* prog) {
  if (c.json.empty()) return true;
  out.open(c.json);
  if (!out) {
    std::cerr << prog << ": cannot open " << c.json << " for writing\n";
    return false;
  }
  return true;
}

/// The summary table's "mode" row, shared by run and serve.
std::string theta_label(const core::ExperimentConfig& exp) {
  return exp.network.mode == ThetaMode::Atc
             ? "ATC"
             : "fixed theta=" + metrics::fmt(exp.network.fixed_pct, 1) + "%";
}

int run_sweep(const Cli& c) {
  // Every axis is always present (single-valued axes still label their
  // coordinate) so the output schema is uniform.
  sweep::ExperimentPlan plan("dirqsim-sweep", [&] {
    core::ExperimentConfig base = sweep::paper_config(c.seeds.front());
    base.epochs = c.cfg.exp.epochs;
    base.query_period = c.cfg.exp.query_period;
    base.keep_records = false;
    return base;
  }());
  if (c.paper_grid) {
    plan.axis(sweep::paper_theta_axis());
    plan.axis(sweep::paper_relevant_axis());
  } else {
    plan.axis(sweep::theta_axis(c.thetas));
    plan.axis(sweep::relevant_axis(c.relevants));
  }
  plan.axis(sweep::seed_axis(c.seeds));
  plan.axis(sweep::loss_axis(c.losses));
  plan.axis(sweep::transport_axis(c.macs));
  plan.axis(c.scale_tier ? sweep::scale_nodes_axis()
                         : sweep::nodes_axis(c.node_counts));
  plan.axis(sweep::sinks_axis(c.sink_counts));
  plan.axis(sweep::burst_axis(c.bursts));
  plan.axis(sweep::field_axis(c.fields));

  std::size_t total = 0;
  try {
    total = plan.size();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim sweep: " << e.what() << "\n";
    return 2;
  }

  sweep::SweepOptions opts;
  opts.threads = c.workers;
  std::size_t done = 0;
  opts.progress = [&done, total](const sweep::PlanCell& cell, bool ok) {
    ++done;
    std::cerr << "[" << done << "/" << total << "] " << cell.label
              << (ok ? "" : "  <failed>") << "\n";
  };

  sweep::ConsoleTableSink console(std::cout);
  sweep::TsvSink tsv_sink(std::cout);
  std::ofstream json_file;
  std::vector<sweep::ResultSink*> sinks{&console};
  if (c.tsv) sinks.push_back(&tsv_sink);
  std::optional<sweep::JsonSink> json_sink;
  if (!open_json(c, json_file, "dirqsim sweep")) return 1;
  if (json_file.is_open()) {
    json_sink.emplace(json_file, c.timing);
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
  if (json_file.is_open()) {
    std::cerr << "dirqsim sweep: wrote " << c.json << "\n";
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

int run_serve(const Cli& c) {
  const serve::ServeConfig& cfg = c.cfg;
  std::ofstream json_file;
  if (!open_json(c, json_file, "dirqsim serve")) return 1;

  serve::ServeResults res;
  try {
    res = serve::Server(cfg).run();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim serve: " << e.what() << "\n";
    return 1;
  }

  metrics::Table t({"metric", "value"});
  t.add_row({"mode", theta_label(cfg.exp)});
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
    const serve::CacheStats& cs = res.cache;
    const double hit_rate =
        cs.lookups() > 0 ? 100.0 * static_cast<double>(cs.hits()) /
                               static_cast<double>(cs.lookups())
                         : 0.0;
    t.add_row({"cache hits (fresh/stale)", std::to_string(cs.fresh_hits) +
                                               "/" +
                                               std::to_string(cs.stale_hits)});
    t.add_row({"cache hit rate %", metrics::fmt(hit_rate, 1)});
    t.add_row({"containment hits", std::to_string(cs.containment_hits)});
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

  if (json_file.is_open()) {
    serve::write_serve_json(cfg, res, json_file);
    std::cerr << "dirqsim serve: wrote " << c.json << "\n";
  }
  return 0;
}

int run_batch(const Cli& c) {
  const core::ExperimentConfig& cfg = c.cfg.exp;
  core::ExperimentResults res;
  try {
    res = core::Experiment(cfg).run();
  } catch (const std::exception& e) {
    std::cerr << "dirqsim: " << e.what() << "\n";
    return 1;
  }

  metrics::Table t({"metric", "value"});
  t.add_row({"mode", theta_label(cfg)});
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

  if (c.series) {
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

}  // namespace

int main(int argc, char** argv) {
  const ModeInfo* mode = &kModes[0];
  for (const ModeInfo& m : kModes) {
    if (m.word != nullptr && argc > 1 && std::string(argv[1]) == m.word) {
      mode = &m;
    }
  }
  const int first = mode->word != nullptr ? 2 : 1;

  Cli c;
  try {
    if (!parse(*mode, argc - first, argv + first, c)) return 0;
  } catch (const UsageError& e) {
    std::cerr << mode->prog << ": " << e.what() << "\n";
    return 2;
  }
  switch (mode->mode) {
    case kSweep:
      return run_sweep(c);
    case kServe:
      return run_serve(c);
    default:
      return run_batch(c);
  }
}
