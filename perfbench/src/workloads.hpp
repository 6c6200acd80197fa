// The benchmark's three workloads and the runs it makes of each.
//
// A workload is one configuration of a library entry point. Every run
// returns, per unit of work (a sweep cell, or the whole run), the bytes of
// its deterministic output and what failed, so the caller can compare runs
// byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "replica.hpp"

namespace perfbench {

enum class EntryPoint { Sweep, Experiment, Serve };

struct WorkloadSpec {
  std::string name;
  EntryPoint entry = EntryPoint::Experiment;
  /// World and protocol settings; seed, epochs and threads are set per run.
  dirq::core::ExperimentConfig exp{};
  std::int64_t length = 0;   // epochs per run or cell; serve duration
  unsigned workers = 1;      // sweep pool width
  double serve_rate = 0.0;   // Poisson arrivals per epoch (serve only)
};

/// The named workload at full size, or at the tiny smoke-test size.
/// Throws std::invalid_argument for an unknown name.
WorkloadSpec find_workload(const std::string& name, bool tiny);

/// The library call a workload's untraced run times, e.g.
/// "core::Experiment::run".
const char* entry_point_name(EntryPoint entry) noexcept;

struct UnitResult {
  std::string label;
  std::string output;  // deterministic output bytes
  std::string error;   // exception or failed check; empty when fine
};

struct RunResult {
  std::vector<UnitResult> units;
  double wall_s = 0.0;              // the whole entry-point call
  std::int64_t node_epochs = 0;     // simulated nodes x epochs, all units
  std::vector<double> cell_wall_s;  // per sweep cell (SweepRunner timing)
  LayerTally tally;                 // traced runs only
};

struct RunOptions {
  std::int64_t length = 0;  // epochs (serve: duration); 0 builds the world only
  bool sequential = false;  // threads 1 and one sweep worker
  bool traced = false;      // run the traced replica instead of the entry point
};

/// One run of the workload at `seed`. A failing unit never throws; its
/// failure lands in that unit's error.
RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       const RunOptions& opts);

}  // namespace perfbench
