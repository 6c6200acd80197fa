// Abstraction over "where sensor readings come from": the synthetic
// Environment (src/data/field_model.hpp) or its counter-based fast twin
// (src/data/fast_field.hpp). The protocol layers only ever see this
// interface, so a user can swap the paper's synthetic dataset for real
// deployment data without touching DirQ.
#pragma once

#include <cstdint>
#include <span>

#include "sim/types.hpp"

namespace dirq::data {

class ReadingSource {
 public:
  virtual ~ReadingSource() = default;

  /// Advances to the given epoch (monotonic).
  virtual void advance_to(std::int64_t epoch) = 0;

  /// Reading of `node` for `type` at the current epoch.
  [[nodiscard]] virtual double reading(NodeId node, SensorType type) const = 0;

  /// Batch reading plane: fills `out[i]` with the reading of `nodes[i]`
  /// for `type` at the current epoch. `out.size()` must equal
  /// `nodes.size()`. The epoch loop issues one call per sensor type per
  /// epoch through this path instead of one virtual `reading()` per node;
  /// values are required to be identical to the per-node path (the batch
  /// is a transport optimisation, never a semantic change). The default
  /// implementation delegates per node; backends override it with a tight
  /// devirtualised loop.
  virtual void readings(SensorType type, std::span<const NodeId> nodes,
                        std::span<double> out) const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = reading(nodes[i], type);
    }
  }

  /// True when `readings` calls for *different* sensor types may run
  /// concurrently (same epoch, no interleaved advance_to). Both synthetic
  /// backends qualify — each type is an independent field object, so even
  /// their mutable memo caches are disjoint per type — but the default is
  /// false so an unknown source (a user subclass, e.g. replayed deployment
  /// data) is never raced by the parallel epoch engine.
  [[nodiscard]] virtual bool concurrent_type_batches() const noexcept {
    return false;
  }

  /// True when `readings` calls for disjoint node slices of the *same*
  /// sensor type may also run concurrently, letting the engine chunk one
  /// large type's batch across the pool instead of serializing behind the
  /// per-type fan-out. Requires concurrent_type_batches() and is a
  /// stronger claim: per-node memo state must be node-disjoint and state
  /// shared across nodes must only be read (FastField fills its cell
  /// plane in advance_to). Callers must also have settled lazy node
  /// adoption first — one serial reading() of the highest node id a batch
  /// will name is enough. Default false, so an unknown source is never
  /// split. The pinned Environment keeps the default: its readings only
  /// read state that advance_to writes, but no workload runs it split.
  [[nodiscard]] virtual bool concurrent_intra_type_chunks() const noexcept {
    return false;
  }

  /// Number of sensor types this source provides (types are 0..n-1).
  [[nodiscard]] virtual std::size_t type_count() const = 0;

  /// Current epoch.
  [[nodiscard]] virtual std::int64_t epoch() const = 0;
};

/// Which synthetic-environment backend an experiment samples from.
///   Pinned — the sequential AR(1) Environment (field_model.hpp). The
///     default; every scenario golden is pinned against its streams.
///   Fast — the counter-based FastEnvironment (fast_field.hpp): same
///     spatial + temporal correlation structure, O(1) random access,
///     per-epoch cost independent of history. Different (but equally
///     deterministic) values — never golden-compared against Pinned.
enum class EnvironmentBackend { Pinned, Fast };

}  // namespace dirq::data
