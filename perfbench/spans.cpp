#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Rec {
  std::uint64_t t0;
  std::uint64_t t1;
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t op;
  Layer layer;
};

// Per-thread capacity.  A traced fork_join op records ~12 spans on the
// master, so this holds a few thousand traced ops per thread.
constexpr std::size_t kCapacity = std::size_t{1} << 16;
constexpr std::size_t kHeadroom = 4096;

struct Buffer {
  unsigned index = 0;
  std::vector<Rec> recs;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_registry;  // guarded by g_registry_mu
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<bool> g_full{false};
std::atomic<std::uint64_t> g_dropped{0};

Buffer& thread_buffer() {
  // Buffers outlive their threads (pool workers die with their runtime),
  // so the registry owns them.
  thread_local Buffer* t_buf = nullptr;
  if (t_buf == nullptr) {
    auto buf = std::make_unique<Buffer>();
    buf->recs.reserve(kCapacity);
    std::lock_guard<std::mutex> lk(g_registry_mu);
    buf->index = static_cast<unsigned>(g_registry.size());
    t_buf = buf.get();
    g_registry.push_back(std::move(buf));
  }
  return *t_buf;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kRuntime: return "runtime";
    case Layer::kContext: return "ctx";
    case Layer::kNpb: return "npb";
    case Layer::kPool: return "pool";
    case Layer::kBackend: return "backend";
    case Layer::kMrapi: return "mrapi";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(bool on, Layer layer, const char* name, std::uint32_t parent,
           std::uint32_t op)
    : on_(on), layer_(layer), name_(name), parent_(parent), op_(op) {
  if (!on_) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t0_ = now_ns();
}

Span::~Span() {
  if (!on_) return;
  const std::uint64_t t1 = now_ns();
  Buffer& buf = thread_buffer();
  if (buf.recs.size() >= kCapacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.recs.push_back(Rec{t0_, t1, name_, id_, parent_, op_, layer_});
  if (buf.recs.size() + kHeadroom >= kCapacity) {
    g_full.store(true, std::memory_order_relaxed);
  }
}

bool spans_full() { return g_full.load(std::memory_order_relaxed); }

SpanSummary summarize_spans() {
  std::lock_guard<std::mutex> lk(g_registry_mu);
  SpanSummary s;
  s.dropped = g_dropped.load(std::memory_order_relaxed);
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& buf : g_registry) {
    for (const Rec& r : buf->recs) {
      ++s.spans;
      if (r.parent != 0) children[r.parent].emplace_back(r.t0, r.t1);
    }
  }
  for (const auto& buf : g_registry) {
    for (const Rec& r : buf->recs) {
      std::uint64_t covered = 0;
      auto it = children.find(r.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        // Union of child intervals, clipped to the parent's own interval
        // (children on other threads may outlive it by a few ns).
        std::uint64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::clamp(lo, r.t0, r.t1);
          hi = std::clamp(hi, r.t0, r.t1);
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
          }
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
        if (open) covered += cur_hi - cur_lo;
      }
      const std::uint64_t dur = r.t1 - r.t0;
      s.self_ns[static_cast<int>(r.layer)] +=
          static_cast<double>(dur - std::min(dur, covered));
    }
  }
  return s;
}

bool write_spans(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_registry_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = UINT64_MAX;
  for (const auto& buf : g_registry) {
    for (const Rec& r : buf->recs) base = std::min(base, r.t0);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& buf : g_registry) {
    for (const Rec& r : buf->recs) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"op\":%u}}",
                   first ? "" : ",\n", r.name, layer_name(r.layer),
                   static_cast<double>(r.t0 - base) / 1e3,
                   static_cast<double>(r.t1 - r.t0) / 1e3, buf->index, r.id,
                   r.parent, r.op);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
