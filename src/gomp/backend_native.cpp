#include "gomp/backend_native.hpp"

#include <cstdlib>

#include "common/align.hpp"

namespace ompmca::gomp {

namespace {

// tsa: BackendMutex is an erase-typed runtime-dispatch interface; the
// capability cannot be named through the base class, so the wrapped mutex
// stays unannotated (check/check.hpp's dynamic checker covers these).
class NativeMutex final : public BackendMutex {
 public:
  void lock() override { mu_.lock(); }
  void unlock() override { mu_.unlock(); }
  bool try_lock() override { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

}  // namespace

NativeBackend::NativeBackend(platform::Topology topo)
    : topo_(std::move(topo)) {}

NativeBackend::~NativeBackend() {
  // Defensive: join anything the runtime failed to join.
  MutexLock lk(mu_);
  for (auto& [index, t] : threads_) {
    if (t.joinable()) t.join();
  }
}

Status NativeBackend::launch_thread(unsigned index, std::function<void()> fn) {
  MutexLock lk(mu_);
  if (threads_.count(index) > 0) return Status::kNodeExists;
  threads_.emplace(index, std::thread(std::move(fn)));
  return Status::kSuccess;
}

Status NativeBackend::join_thread(unsigned index) {
  std::thread t;
  {
    MutexLock lk(mu_);
    auto it = threads_.find(index);
    if (it == threads_.end()) return Status::kNodeInvalid;
    t = std::move(it->second);
    threads_.erase(it);
  }
  if (t.joinable()) t.join();
  return Status::kSuccess;
}

// Cache-line aligned: allocate_on_cluster serves this path, and its blocks
// hold cache-line-aligned types (barrier tiers, the dispatch-slot bank).
void* NativeBackend::allocate(std::size_t bytes) {
  return std::aligned_alloc(kCacheLineBytes, align_up(bytes, kCacheLineBytes));
}

void NativeBackend::deallocate(void* p) { std::free(p); }

std::unique_ptr<BackendMutex> NativeBackend::create_mutex() {
  return std::make_unique<NativeMutex>();
}

unsigned NativeBackend::num_procs() { return topo_.num_hw_threads(); }

}  // namespace ompmca::gomp
