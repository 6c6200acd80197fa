// Per-layer metrics of one traced run, computed from its spans and counts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Process resource use around one untraced entry-point call.
struct PoolUsage {
  double wall_s = 0.0;
  double cpu_s = 0.0;          // user + system, all threads
  double voluntary_csw = 0.0;  // condvar parks and other blocking waits
  double involuntary_csw = 0.0;
};

struct LayerInputs {
  std::vector<Span> spans;  // one traced run
  LayerTally tally;         // the same traced run
  RunResult untraced;       // an untraced run of the same config
  PoolUsage usage;          // around that untraced run
  unsigned sweep_workers = 1;
  double overhead_pct = 0.0;  // traced vs untraced wall
};

/// Every per-layer metric, in a fixed order; metrics of a layer the
/// workload does not run read 0. Writes a human-readable breakdown to
/// `report`, including the uncovered gaps when span coverage is < 95 %.
std::vector<Metric> layer_metrics(const LayerInputs& in, std::ostream& report);

}  // namespace perfbench
