// perfbench: the DirQ benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-out FILE] [--commit SHA]
//             [--replica-sources match|changed]
//
// --trace 0 measures the end-to-end metrics from untraced calls to the
// workload's entry point; --trace 1 makes a separate traced run of the
// benchmark's replica of that entry point and reports per-layer metrics.
// Human-readable lines start with '#'; the last stdout line is the JSON
// result. Exit code 2 on bad arguments, 3 on a host or build the benchmark
// refuses to measure.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string replica_sources = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--trace-out FILE] "
               "[--commit SHA] [--replica-sources match|changed]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    usage(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, v);
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, v);
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size is full or tiny");
      a.tiny = v == "tiny";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--replica-sources") {
      a.replica_sources = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace is 0 or 1");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds in (0, 600]");
  return a;
}

std::string json_number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Peak RSS of this process image (VmHWM). getrusage's ru_maxrss is not
// used: Linux carries it across exec, so it would report the launching
// process's peak whenever that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Process CPU time and context switches so far (wall_s unset).
PoolUsage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {0.0, sec(ru.ru_utime) + sec(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw)};
}

// Counts attempted and failed units and remembers the first few failures.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Every unit of `run` is one attempt; it fails on its own error or when
  // `expected` is given and its output bytes differ from the expected run's.
  void check(const RunResult& run, const RunResult* expected,
             const char* what) {
    for (std::size_t i = 0; i < run.units.size(); ++i) {
      ++attempted;
      const UnitResult& u = run.units[i];
      std::string why = u.error;
      if (why.empty() && expected != nullptr) {
        if (i >= expected->units.size() || !expected->units[i].error.empty()) {
          why = "no valid reference output";
        } else if (u.output != expected->units[i].output) {
          why = std::string("output differs from the ") + what;
        }
      }
      if (!why.empty()) fail(u.label + ": " + why);
    }
  }

  void fail(const std::string& why) {
    if (failed++ < 5) std::cout << "# FAILED " << why << "\n";
  }
};

void print_result(const Outcomes& outcomes, bool correct,
                  const std::vector<Metric>& metrics) {
  std::cout << "# failed_pct "
            << json_number(outcomes.attempted > 0
                               ? 100.0 * static_cast<double>(outcomes.failed) /
                                     static_cast<double>(outcomes.attempted)
                               : 100.0)
            << " % (" << outcomes.failed << " of " << outcomes.attempted
            << ")\n";
  std::ostringstream os;
  os << "{\"correct\": " << (correct && outcomes.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(outcomes.attempted, 1)
     << ", \"failed\": " << outcomes.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
       << json_number(std::isfinite(m.value) ? m.value : 0.0)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// End-to-end metrics from untraced entry-point calls. Everything, set-up
// and reference run included, fits in --seconds (plus one last call).
int measure(const WorkloadSpec& spec, const Args& args) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  Outcomes outcomes;
  // The reference every measured call must reproduce byte for byte.
  const RunResult ref = run_workload(
      spec, args.seed, {.length = spec.length, .sequential = true});
  outcomes.check(ref, nullptr, "");

  // Set-up: the same entry point and config at zero length. Repetitions
  // cycle through kSetupSeeds seeds derived from --seed (building a
  // 50-node paper world rejection-samples placements, and how many tries
  // one seed needs would otherwise decide the median). They run between
  // the measured calls, about a tenth of each call's time, so they see the
  // same warmed-up host as the calls: on a host whose cores just idled,
  // a fraction-of-a-millisecond set-up reads several times slower.
  constexpr std::uint64_t kSetupSeeds = 16;
  std::vector<double> setup;
  const auto set_up_once = [&] {
    const std::uint64_t seed =
        args.seed * kSetupSeeds + setup.size() % kSetupSeeds;
    const RunResult r = run_workload(spec, seed, {.length = 0});
    outcomes.check(r, nullptr, "");
    setup.push_back(r.wall_s);
  };

  std::vector<double> rates;
  do {
    const RunResult r = run_workload(spec, args.seed, {.length = spec.length});
    outcomes.check(r, &ref, "threads-1 run");
    rates.push_back(static_cast<double>(r.node_epochs) / r.wall_s);
    const auto setup_until =
        Clock::now() + std::chrono::duration<double>(r.wall_s / 10);
    do set_up_once(); while (Clock::now() < setup_until);
  } while (Clock::now() < deadline || rates.size() < 3);
  while (setup.size() < kSetupSeeds) set_up_once();

  std::cout << "# node_epochs_per_s per call:";
  for (double r : rates) std::cout << ' ' << r;
  std::cout << "\n";
  const std::vector<Metric> metrics = {
      {"node_epochs_per_s", median(rates), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  std::sort(rates.begin(), rates.end());
  std::sort(setup.begin(), setup.end());
  std::cout << "# node_epochs_per_s median " << metrics[0].value << " (min "
            << rates.front() << ", max " << rates.back() << ", n "
            << rates.size() << " calls of " << spec.length << " epochs)\n"
            << "# setup_s median " << metrics[1].value << " (min "
            << setup.front() << ", max " << setup.back() << ", n "
            << setup.size() << ")\n"
            << "# peak_rss_mib " << metrics[2].value << "\n"
            << "# threads-1 reference call: "
            << static_cast<double>(ref.node_epochs) / ref.wall_s
            << " node-epochs/s\n";
  print_result(outcomes, true, metrics);
  return 0;
}

// Per-layer metrics from a traced replica run, gated on byte-identity with
// the untraced entry point.
int trace_run(const WorkloadSpec& spec, const Args& args,
              const std::string& provenance) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(args.seconds);
  Outcomes outcomes;
  bool gate_ok = true;
  // Runs `run` against `expected`; any failure closes the gate.
  const auto gate = [&](const RunResult& run, const RunResult& expected,
                        const char* what) {
    const std::int64_t failed_before = outcomes.failed;
    outcomes.check(run, &expected, what);
    if (outcomes.failed != failed_before) gate_ok = false;
  };

  // The replica on one thread fixes the exact counts every traced run at
  // the workload's thread count must repeat.
  const RunResult seq = run_workload(
      spec, args.seed,
      {.length = spec.length, .sequential = true, .traced = true});
  (void)take_spans();
  const std::string counts = seq.tally.exact_counts();

  // Untraced / traced pairs until the time is used; the first pair gives
  // the per-layer numbers, all pairs the tracing overhead.
  LayerInputs in;
  in.sweep_workers = spec.workers;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  do {
    const PoolUsage before = usage_now();
    RunResult u = run_workload(spec, args.seed, {.length = spec.length});
    const PoolUsage after = usage_now();
    untraced_wall.push_back(u.wall_s);
    const RunResult t = run_workload(
        spec, args.seed, {.length = spec.length, .traced = true});
    std::vector<Span> spans = take_spans();
    traced_wall.push_back(t.wall_s);

    if (in.untraced.units.empty()) {
      outcomes.check(u, nullptr, "");
      gate(seq, u, "untraced entry point (threads-1 replica)");
      in.untraced = std::move(u);
      in.usage = {in.untraced.wall_s, after.cpu_s - before.cpu_s,
                  after.voluntary_csw - before.voluntary_csw,
                  after.involuntary_csw - before.involuntary_csw};
      in.spans = std::move(spans);
      in.tally = t.tally;
    } else {
      outcomes.check(u, &in.untraced, "first untraced run");
    }
    gate(t, in.untraced, "untraced entry point (replica fidelity gate)");
    if (t.tally.exact_counts() != counts) {
      gate_ok = false;
      outcomes.fail("exact counts differ from the threads-1 replica: " +
                    t.tally.exact_counts() + " vs " + counts);
    }
  } while (std::chrono::steady_clock::now() < deadline);

  in.overhead_pct = 100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
  std::cout << "# traced wall median " << median(traced_wall)
            << " s vs untraced " << median(untraced_wall) << " s over "
            << traced_wall.size() << " pairs\n# exact counts " << counts
            << "\n";
  if (!gate_ok) {
    std::cout << "# replica fidelity gate failed: no per-layer metrics\n";
    print_result(outcomes, false, {});
    return 0;
  }
  const std::vector<Metric> metrics = layer_metrics(in, std::cout);
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " " << m.value << " " << m.unit << "\n";
  }
  bool wrote = true;
  if (!args.trace_out.empty()) {
    wrote = write_chrome_trace(args.trace_out, in.spans, provenance);
    std::cout << "# trace " << (wrote ? "written to " : "NOT written to ")
              << args.trace_out << " (" << in.spans.size() << " spans)\n";
  }
  print_result(outcomes, wrote, metrics);
  return 0;
}

std::string provenance_json(const WorkloadSpec& spec, const Args& args,
                            unsigned nproc) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(spec.name)
     << ", \"entry_point\": " << json_string(entry_point_name(spec.entry))
     << ", \"seed\": " << args.seed << ", \"size\": "
     << json_string(args.tiny ? "tiny" : "full")
     << ", \"length\": " << spec.length
     << ", \"nproc\": " << nproc << ", \"threads\": "
     << dirq::core::Experiment::effective_threads(spec.exp)
     << ", \"sweep_workers\": " << spec.workers
     << ", \"compiler\": " << json_string(compiler())
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << json_string(args.commit)
     << ", \"replica_sources\": " << json_string(args.replica_sources) << "}";
  return os.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  WorkloadSpec spec;
  try {
    spec = find_workload(args.workload, args.tiny);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  // Refuse numbers that would not mean what they claim: an unoptimised
  // build, or a host with fewer cores than paper_grid's 4 sweep workers.
  const unsigned nproc = host_cpus();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::cerr << "perfbench: refusing a non-Release build (" << build_type
              << ")\n";
    return 3;
  }
  if (nproc < 4) {
    std::cerr << "perfbench: refusing a host with nproc = " << nproc
              << " < 4 (paper_grid runs 4 sweep workers)\n";
    return 3;
  }

  const std::string provenance = provenance_json(spec, args, nproc);
  std::cout << "# provenance " << provenance << "\n";
  if (args.replica_sources == "changed") {
    std::cout << "# note: an entry point the replica mirrors changed since the "
                 "replica was written; the fidelity gate decides\n";
  }
  try {
    return args.trace == 0 ? measure(spec, args)
                           : trace_run(spec, args, provenance);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
