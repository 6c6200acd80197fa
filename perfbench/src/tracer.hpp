// Span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around the public
// calls it makes into each library layer (outside-in: nothing inside the
// library is instrumented). Each thread appends to its own in-memory
// buffer; buffers are drained once the traced run has joined every thread
// and written out as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  ReplicaExperiment,  // one traced Experiment::run replica (a sweep cell)
  ReplicaServe,       // one traced Server::run replica
  NetTopologyBuild,
  DataEnvBuild,
  CoreNetworkBuild,
  CoreChannelBuild,   // loss channel / LMAC scheduler + MAC + transport
  SimPoolBuild,       // DirqNetwork::set_threads
  QueryWorkloadBuild,
  ServeTraceBuild,    // TraceGen construction (draws the predicate pool)
  DataAdvance,
  DataFetch,
  CoreEhr,
  CoreEpoch,
  CoreAdmission,
  QueryWorkload,
  QueryInvolvement,
  CoreInject,
  CoreCollect,
  MetricsAudit,
  CoreTheta,
  MacDrain,
  ServeTrace,
  ServeOffer,
  ServeBoundary,
  CoreResults,
  kCount
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::int64_t arg = -1;     // epoch number or query id; -1 when none
  std::uint32_t tid = 0;
  SpanName name = SpanName::kCount;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// Small per-thread index, assigned on first use and stable for the
/// thread's lifetime (1-based; also the Chrome trace tid).
[[nodiscard]] std::uint32_t thread_index();

/// Times the enclosing block on the calling thread; scopes opened while
/// it is open become its children.
class SpanScope {
 public:
  explicit SpanScope(SpanName name, std::int64_t arg = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanName name_;
  std::int64_t arg_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_;
};

/// Records a span the caller timed itself, with an explicit parent (used
/// for work a pool thread does on behalf of a span open on another thread).
void record_span(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t parent, std::int64_t arg);

/// Runs `f` inside a span and returns its result (guaranteed copy elision,
/// so non-movable results such as DirqNetwork work too).
template <typename F>
auto traced(SpanName name, F&& f, std::int64_t arg = -1) -> decltype(f()) {
  SpanScope scope(name, arg);
  return f();
}

/// Moves every thread's recorded spans out, sorted by start time. Call only
/// while no thread is recording (after the traced run joined its pools).
[[nodiscard]] std::vector<Span> take_spans();

/// Chrome trace-event JSON ("X" complete events; ids and parents in args).
/// `metadata` is a JSON object body written as the document's otherData.
/// Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json);

}  // namespace perfbench
