// Synthetic spatio-temporal environment model.
//
// The paper evaluates DirQ on "a synthetic dataset with 4 sensor types ...
// where sensor values of nodes located close to one another are spatially
// related. The generated sensor data is also related in the temporal
// dimension. Each sensor acquires a reading every time unit [epoch] for a
// period of 20,000 time units." (§7)
//
// We reproduce those properties with, per sensor type:
//
//   value(x, y, t) = base                                  (type offset)
//                  + diurnal * sin(2*pi*t/period + phase)  (slow trend)
//                  + sum_b A_b * exp(-|p - c_b(t)|^2 / 2*s_b^2)
//                                                   (drifting warm/cold
//                                                    fronts: spatial AND
//                                                    temporal correlation)
//                  + regional AR(1) noise (shared by a coarse grid cell:
//                                          nearby nodes move together)
//                  + per-node AR(1) noise  (sensor-local variation)
//
// Everything is driven by named Rng substreams, so a (seed, type, node,
// epoch) tuple always produces the same reading. Epochs must be advanced
// monotonically (AR(1) state is sequential); readings within an epoch may
// be queried in any order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/field_geometry.hpp"
#include "data/reading_source.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace dirq::data {

/// Static description of one sensor type's field dynamics.
struct FieldParams {
  double base = 20.0;            // mean level (e.g. degrees C)
  double diurnal_amplitude = 4.0;
  double diurnal_period = 8000;  // epochs per pseudo-day
  double phase = 0.0;
  /// Static planar gradient: total value rise across the full deployment
  /// width (x) and height (y). Environmental fields are usually monotone
  /// at deployment scale (altitude lapse, distance to a river, canopy
  /// density), which makes value ranges spatially contiguous — nearby
  /// nodes fall in the same query windows.
  double gradient_x = 0.0;
  double gradient_y = 0.0;
  std::size_t bump_count = 3;    // drifting Gaussian fronts
  double bump_amplitude = 5.0;   // peak contribution of a front
  double bump_sigma = 25.0;      // spatial extent of a front
  double bump_drift = 0.02;      // units of distance per epoch
  double regional_cell = 30.0;   // side of the shared-noise grid cell
  double regional_sigma = 0.4;   // innovation std-dev of regional AR(1)
  double regional_rho = 0.95;    // AR(1) coefficient (temporal memory)
  double node_sigma = 0.15;      // innovation std-dev of per-node AR(1)
  double node_rho = 0.9;
};

/// Canonical parameter sets for the paper's four sensor types.
FieldParams default_params(SensorType type);

/// One sensor type's field over a fixed node population.
class Field {
 public:
  Field(SensorType type, FieldParams params, const net::Topology& topo,
        sim::Rng rng);

  /// Advances internal AR(1) state to `epoch` (>= current epoch).
  void advance_to(std::int64_t epoch);

  /// Reading of the given node at the current epoch. Valid for any node id
  /// in the topology the Field was built against (also dead ones — the
  /// physical quantity exists whether or not the node does). Nodes added
  /// to the topology after construction are adopted lazily: their position
  /// is read from the topology and their sensor-local noise starts at 0.
  [[nodiscard]] double reading(NodeId node) const;

  /// Batch form of `reading`: fills `out[i]` for `nodes[i]`. Values are
  /// bit-identical to per-node `reading()` calls (readings are pure at a
  /// fixed epoch); the batch only exists so the epoch loop crosses the
  /// environment boundary once per type instead of once per node.
  void readings(std::span<const NodeId> nodes, std::span<double> out) const;

  /// Deterministic field value at an arbitrary position, current epoch,
  /// excluding per-node noise (used by tests to check spatial coherence).
  [[nodiscard]] double field_at(double x, double y) const;

  [[nodiscard]] std::int64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] SensorType type() const noexcept { return type_; }
  [[nodiscard]] const FieldParams& params() const noexcept { return params_; }

 private:
  struct Bump {
    double cx, cy;      // current centre
    double vx, vy;      // drift velocity (bounces off area walls)
    double amplitude;
    double sigma;
  };

  [[nodiscard]] std::size_t cell_of(double x, double y) const;
  void step_once();
  void refresh_diurnal();
  /// Shared evaluation core: identical arithmetic for field_at (which
  /// resolves the cell per call) and reading (which uses the cached
  /// per-node cell), so both produce bit-identical values.
  [[nodiscard]] double field_value(double x, double y, std::size_t cell) const;

  void adopt_new_nodes() const;

  SensorType type_;
  FieldParams params_;
  sim::Rng rng_;
  std::int64_t epoch_ = 0;
  const net::Topology* topo_ = nullptr;  // for post-construction node adoption

  // Geometry captured from the topology (lazily extended on node
  // addition); shared arithmetic with the fast backend.
  FieldGeometry geo_;
  double diurnal_ = 0.0;  // amplitude * sin(...) for the current epoch

  std::vector<Bump> bumps_;
  std::vector<double> regional_;           // AR(1) value per grid cell
  mutable std::vector<double> node_noise_; // AR(1) value per node
  // One step's innovations for the larger plane; grows when adoption
  // grows node_noise_.
  std::vector<double> draws_;
};

/// Bundle of one Field per sensor type, advanced in lock-step. This is the
/// "environment" object the simulation driver owns. Implements
/// ReadingSource so traces or real datasets can substitute for it.
class Environment final : public ReadingSource {
 public:
  Environment(const net::Topology& topo, std::size_t sensor_type_count,
              sim::Rng rng);

  void advance_to(std::int64_t epoch) override;

  [[nodiscard]] double reading(NodeId node, SensorType type) const override;
  void readings(SensorType type, std::span<const NodeId> nodes,
                std::span<double> out) const override;
  [[nodiscard]] const Field& field(SensorType type) const;
  // Each type is its own Field with its own AR(1) state — per-type
  // batches touch disjoint state.
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return true;
  }
  [[nodiscard]] std::size_t type_count() const noexcept override {
    return fields_.size();
  }
  [[nodiscard]] std::int64_t epoch() const noexcept override { return epoch_; }

 private:
  std::vector<Field> fields_;
  std::int64_t epoch_ = 0;
};

}  // namespace dirq::data
