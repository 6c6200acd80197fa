// Shared helpers for the figure-reproduction benches.
//
// The §7 configuration vocabulary (paper_config, theta/relevant axes) lives
// in sweep/plan.hpp so the grid is defined in exactly one place; benches
// declare an ExperimentPlan, run it through SweepRunner, and render rows
// through ResultSinks.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/sink.hpp"

namespace dirq::bench {

/// Strict positive-integer parse shared by the standalone bench tools
/// (the contract of dirqsim's integer flags: the whole token must be
/// base-10, no wrap, no truncation; < min is an error). The default min of 1 fits
/// counts; flags where 0 is meaningful (--threads: all hardware threads)
/// pass min = 0. Exits 2 on bad input.
inline std::int64_t parse_count(const char* tool, const char* flag,
                                const std::string& value,
                                std::int64_t min = 1) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < min) {
    std::cerr << tool << ": " << flag << " expects an integer >= " << min
              << ", got: '" << value << "'\n";
    std::exit(2);
  }
  return static_cast<std::int64_t>(v);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==============================================================\n\n";
}

}  // namespace dirq::bench
