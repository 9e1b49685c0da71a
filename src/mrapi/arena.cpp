#include "mrapi/arena.hpp"

#include <algorithm>
#include <cstdint>

#include "common/align.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"

namespace ompmca::mrapi {

SystemShmArena::SystemShmArena(std::size_t capacity_bytes,
                               unsigned num_clusters)
    : capacity_(align_up(capacity_bytes, kCacheLineBytes)),
      storage_(new std::byte[capacity_ + kCacheLineBytes]) {
  // Normalise the base so every offset-0 allocation is cache-line aligned.
  auto base = reinterpret_cast<std::uintptr_t>(storage_.get());
  base_offset_adjust_ = align_up(base, kCacheLineBytes) - base;
  if (num_clusters < 1) num_clusters = 1;
  // Even, cache-line-granular split; the last pool absorbs the remainder so
  // no byte of the configured capacity is lost to rounding.
  const std::size_t stride =
      (capacity_ / num_clusters) & ~(kCacheLineBytes - 1);
  pools_.reserve(num_clusters);
  for (unsigned c = 0; c < num_clusters; ++c) {
    auto pool = std::make_unique<Pool>();
    pool->base = static_cast<std::size_t>(c) * stride;
    pool->size =
        (c + 1 == num_clusters) ? capacity_ - pool->base : stride;
    if (pool->size > 0) pool->free_list[pool->base] = pool->size;
    pools_.push_back(std::move(pool));
  }
}

void* SystemShmArena::allocate_in_pool(Pool& pool, std::size_t need) {
  MutexLock lk(pool.mu);
  for (auto it = pool.free_list.begin(); it != pool.free_list.end(); ++it) {
    if (it->second >= need) {
      std::size_t offset = it->first;
      std::size_t remaining = it->second - need;
      pool.free_list.erase(it);
      if (remaining > 0) pool.free_list[offset + need] = remaining;
      pool.allocated[offset] = need;
      pool.used += need;
      return static_cast<void*>(storage_.get() + base_offset_adjust_ +
                                offset);
    }
  }
  return nullptr;
}

Result<void*> SystemShmArena::allocate(std::size_t bytes,
                                       unsigned cluster_hint) {
  const obs::Probe probe(obs::Hist::kMrapiArenaAllocateNs);
  if (bytes == 0) return Status::kInvalidArgument;
  if (OMPMCA_FAULT_POINT(kMrapiArenaAlloc)) {
    probe.count(obs::Counter::kMrapiArenaAllocateFailed);
    return Status::kOutOfResources;
  }
  const std::size_t need = align_up(bytes, kCacheLineBytes);
  const unsigned npools = num_pools();
  const bool hinted = cluster_hint != kAnyCluster && cluster_hint < npools &&
                      npools > 1;

  // Visit order: the hinted pool first, then the others least-loaded first
  // (a spill should land where there is room, not deterministically hammer
  // pool 0).  Hint-less requests just take the least-loaded order.  The
  // load snapshot is advisory — first-fit inside each pool is what decides.
  std::vector<std::pair<std::size_t, unsigned>> ord;
  ord.reserve(npools);
  for (unsigned i = 0; i < npools; ++i) {
    std::size_t u;
    {
      MutexLock lk(pools_[i]->mu);
      u = pools_[i]->used;
    }
    ord.emplace_back(hinted && i == cluster_hint ? 0 : u + 1, i);
  }
  std::sort(ord.begin(), ord.end());

  for (unsigned i = 0; i < npools; ++i) {
    void* p = allocate_in_pool(*pools_[ord[i].second], need);
    if (p == nullptr) continue;
    used_bytes_.fetch_add(need, std::memory_order_relaxed);
    probe.count(obs::Counter::kMrapiArenaAllocate);
    if (hinted) {
      probe.count(ord[i].second == cluster_hint
                      ? obs::Counter::kMrapiArenaClusterLocal
                      : obs::Counter::kMrapiArenaClusterSpill);
    }
    obs::gauge_max(obs::Gauge::kMrapiArenaBytesInUseHwm,
                   used_bytes_.load(std::memory_order_relaxed));
    return p;
  }
  probe.count(obs::Counter::kMrapiArenaAllocateFailed);
  return Status::kOutOfResources;
}

Status SystemShmArena::release(void* ptr) {
  const obs::Probe probe(obs::Hist::kMrapiArenaReleaseNs);
  // Validate the pointer against the arena's range as integers before doing
  // any pointer subtraction: `p - base` on a pointer that does not point
  // into storage_ is undefined behaviour and can wrap to a huge offset.
  const auto p_addr = reinterpret_cast<std::uintptr_t>(ptr);
  const auto base_addr =
      reinterpret_cast<std::uintptr_t>(storage_.get() + base_offset_adjust_);
  if (p_addr < base_addr || p_addr >= base_addr + capacity_) {
    return Status::kInvalidArgument;
  }
  const auto offset = static_cast<std::size_t>(p_addr - base_addr);
  // Pools partition the offset space in ascending base order.
  Pool* pool = pools_.back().get();
  for (auto& p : pools_) {
    if (offset >= p->base && offset < p->base + p->size) {
      pool = p.get();
      break;
    }
  }
  MutexLock lk(pool->mu);
  auto it = pool->allocated.find(offset);
  if (it == pool->allocated.end()) return Status::kInvalidArgument;
  std::size_t size = it->second;
  pool->allocated.erase(it);
  pool->used -= size;
  used_bytes_.fetch_sub(size, std::memory_order_relaxed);
  probe.count(obs::Counter::kMrapiArenaRelease);

  // Insert and coalesce with the previous / next free block.
  auto [ins, inserted] = pool->free_list.emplace(offset, size);
  (void)inserted;
  if (ins != pool->free_list.begin()) {
    auto prev = std::prev(ins);
    if (prev->first + prev->second == ins->first) {
      prev->second += ins->second;
      pool->free_list.erase(ins);
      ins = prev;
    }
  }
  auto next = std::next(ins);
  if (next != pool->free_list.end() &&
      ins->first + ins->second == next->first) {
    ins->second += next->second;
    pool->free_list.erase(next);
  }
  return Status::kSuccess;
}

std::size_t SystemShmArena::used() const {
  return used_bytes_.load(std::memory_order_relaxed);
}

std::size_t SystemShmArena::free_blocks() const {
  std::size_t total = 0;
  for (const auto& p : pools_) {
    MutexLock lk(p->mu);
    total += p->free_list.size();
  }
  return total;
}

unsigned SystemShmArena::pool_of(const void* ptr) const {
  const auto p_addr = reinterpret_cast<std::uintptr_t>(ptr);
  const auto base_addr =
      reinterpret_cast<std::uintptr_t>(storage_.get() + base_offset_adjust_);
  if (p_addr < base_addr || p_addr >= base_addr + capacity_) {
    return num_pools();
  }
  const auto offset = static_cast<std::size_t>(p_addr - base_addr);
  for (unsigned i = 0; i < num_pools(); ++i) {
    if (offset >= pools_[i]->base &&
        offset < pools_[i]->base + pools_[i]->size) {
      return i;
    }
  }
  return num_pools();
}

}  // namespace ompmca::mrapi
