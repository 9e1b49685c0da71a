// In-memory span recorder for the traced run.
//
// Spans are taken in the benchmark's own code, around its calls into each
// layer's public functions (workload op -> Runtime::parallel ->
// ParallelContext call; probe phases for pool, backend, mrapi and npb).
// Each thread appends to its own preallocated buffer, so recording is two
// clock reads and one store.  Buffers are kept until exit, then analysed
// for per-layer self time and written out as a Chrome trace.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

enum class Layer : std::uint8_t {
  kBench,    // workload op: the benchmark's own loop, checks included
  kRuntime,  // gomp::Runtime::parallel
  kContext,  // gomp::ParallelContext construct calls
  kNpb,      // npb::run_* calls
  kPool,     // gomp::ThreadPool probe phases
  kBackend,  // gomp::SystemBackend probe phases
  kMrapi,    // mrapi probe phases
  kCount
};

const char* layer_name(Layer l);

std::uint64_t now_ns();

/// RAII span.  A span constructed with @p on false records nothing and
/// costs one branch.  @p parent is the id of the span that caused this
/// one (0 for a root); @p op groups the spans of one workload op.
class Span {
 public:
  Span(bool on, Layer layer, const char* name, std::uint32_t parent = 0,
       std::uint32_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  bool on_;
  Layer layer_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_;
  std::uint32_t op_;
  std::uint64_t t0_ = 0;
};

/// True once any thread's buffer is nearly full; workloads stop starting
/// traced ops from then on so every traced op is recorded whole.
bool spans_full();

struct SpanSummary {
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  /// Self time per layer: span duration minus the part of it that child
  /// spans cover.
  double self_ns[static_cast<int>(Layer::kCount)] = {};
};

SpanSummary summarize_spans();

/// Writes every recorded span as Chrome trace-event JSON; false on I/O
/// failure.
bool write_spans(const std::string& path);

}  // namespace perfbench
