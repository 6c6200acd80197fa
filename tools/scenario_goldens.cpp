// Regenerates the golden tables embedded in
// tests/scenarios/scenario_matrix_test.cpp (instant tier),
// tests/scenarios/lmac_matrix_test.cpp (LMAC tier),
// tests/scenarios/multi_matrix_test.cpp (multi-attribute tier) and
// tests/scenarios/mode_matrix_test.cpp (ATC / sampling-gate tier). Run after any
// *intentional* change to the RNG layout, topology builder, field model,
// protocol logic, MAC behaviour, or cost accounting, and paste each table
// over the matching kCases initialiser:
//
//   cmake --build build --target scenario_goldens
//   ./build/tools/scenario_goldens
//
// The grids and per-cell configs come from tests/scenarios/scenario_grid.hpp,
// shared with the tests, so the grids cannot drift apart.
#include <cstdio>

#include "core/experiment.hpp"
#include "scenarios/scenario_grid.hpp"

namespace {

void print_row(std::uint64_t seed, std::size_t nodes, double loss,
               const dirq::core::ExperimentResults& r) {
  std::printf(
      "      {%llu, %zu, %.2f, %lld, %lld, %lld, %.10f, %.10f, %.10f},\n",
      static_cast<unsigned long long>(seed), nodes, loss,
      static_cast<long long>(r.updates_transmitted),
      static_cast<long long>(r.ledger.total()),
      static_cast<long long>(r.flooding_total), r.coverage_pct.mean(),
      r.overshoot_pct.mean(), r.receive_pct.mean());
}

}  // namespace

int main() {
  using namespace dirq;
  std::printf("// instant tier — paste over kCases in scenario_matrix_test.cpp\n");
  scenarios::for_each_cell([](std::uint64_t seed, std::size_t nodes,
                              double loss) {
    const core::ExperimentResults r =
        core::Experiment(scenarios::make_config(seed, nodes, loss)).run();
    print_row(seed, nodes, loss, r);
  });
  std::printf("// lmac tier — paste over kCases in lmac_matrix_test.cpp\n");
  scenarios::for_each_lmac_cell([](std::uint64_t seed, std::size_t nodes,
                                   double loss) {
    const core::ExperimentResults r =
        core::Experiment(scenarios::make_lmac_config(seed, nodes, loss)).run();
    print_row(seed, nodes, loss, r);
  });
  std::printf("// multi-attr tier — paste over kCases in multi_matrix_test.cpp\n");
  scenarios::for_each_multi_cell([](std::uint64_t seed, double fraction,
                                    std::size_t count) {
    const core::ExperimentResults r =
        core::Experiment(scenarios::make_multi_config(seed, fraction, count))
            .run();
    std::printf(
        "      {%llu, %.2f, %zu, %lld, %lld, %lld, %.10f, %.10f, %.10f},\n",
        static_cast<unsigned long long>(seed), fraction, count,
        static_cast<long long>(r.updates_transmitted),
        static_cast<long long>(r.ledger.total()),
        static_cast<long long>(r.flooding_total), r.coverage_pct.mean(),
        r.overshoot_pct.mean(), r.receive_pct.mean());
  });
  std::printf("// mode tier — paste over kCases in mode_matrix_test.cpp\n");
  scenarios::for_each_mode_cell([](std::uint64_t seed, std::size_t nodes,
                                   scenarios::ModeKind mode, double loss,
                                   bool lmac) {
    const core::ExperimentResults r =
        core::Experiment(
            scenarios::make_mode_config(seed, nodes, mode, loss, lmac))
            .run();
    std::printf(
        "      {%llu, %zu, ModeKind::%s, %.2f, %s, %lld, %lld, %lld, %lld, "
        "%.10f, %.10f},\n",
        static_cast<unsigned long long>(seed), nodes,
        mode == scenarios::ModeKind::Atc ? "Atc" : "Gated", loss,
        lmac ? "true" : "false", static_cast<long long>(r.updates_transmitted),
        static_cast<long long>(r.ledger.total()),
        static_cast<long long>(r.samples_taken),
        static_cast<long long>(r.samples_skipped), r.coverage_pct.mean(),
        r.overshoot_pct.mean());
  });
  return 0;
}
