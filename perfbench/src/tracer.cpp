#include "tracer.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
    kNames = {
        "replica.experiment", "replica.serve",      "net.topology_build",
        "data.env_build",     "core.network_build", "core.channel_build",
        "sim.pool_build",     "query.workload_build", "serve.trace_build",
        "data.advance",       "data.fetch",         "core.ehr",
        "core.epoch",         "core.admission",     "query.workload",
        "query.involvement",  "core.inject",        "core.collect",
        "metrics.audit",      "core.theta",         "mac.drain",
        "serve.trace",        "serve.offer",        "serve.boundary",
        "core.results",
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t next_seq = 1;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // SpanScope stack
};

// Buffers are owned here, not by their threads, so spans a pool thread
// recorded survive the thread's exit until take_spans drains them.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    r.buffers.back()->tid = static_cast<std::uint32_t>(r.buffers.size());
    return r.buffers.back().get();
  }();
  return *buf;
}

std::uint64_t next_id(ThreadBuffer& b) {
  return (static_cast<std::uint64_t>(b.tid) << 40) | b.next_seq++;
}

}  // namespace

const char* span_name(SpanName name) noexcept {
  const auto i = static_cast<std::size_t>(name);
  return i < kNames.size() ? kNames[i] : "?";
}

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

std::uint32_t thread_index() { return local_buffer().tid; }

SpanScope::SpanScope(SpanName name, std::int64_t arg)
    : name_(name), arg_(arg) {
  ThreadBuffer& b = local_buffer();
  id_ = next_id(b);
  parent_ = b.open.empty() ? 0 : b.open.back();
  b.open.push_back(id_);
  start_ = now_ns();
}

SpanScope::~SpanScope() {
  const std::int64_t end = now_ns();
  ThreadBuffer& b = local_buffer();
  b.open.pop_back();
  b.spans.push_back({start_, end, id_, parent_, arg_, b.tid, name_});
}

void record_span(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t parent, std::int64_t arg) {
  ThreadBuffer& b = local_buffer();
  b.spans.push_back({start_ns, end_ns, next_id(b), parent, arg, b.tid, name});
}

std::vector<Span> take_spans() {
  Registry& r = registry();
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& b : r.buffers) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
      std::vector<Span>().swap(b->spans);
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[",
               metadata_json.c_str());
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"span\":%llu,\"parent\":%llu}}",
                 first ? "" : ",", span_name(s.name), s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.arg),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
