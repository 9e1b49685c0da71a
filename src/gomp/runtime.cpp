#include "gomp/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>

#include "common/log.hpp"
#include "common/time.hpp"
#include "gomp/backend_mca.hpp"
#include "gomp/backend_native.hpp"
#include "mrapi/database.hpp"
#include "obs/monitor.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

thread_local ParallelContext* Runtime::t_current_ = nullptr;

std::string_view to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kNative: return "native";
    case BackendKind::kMca: return "mca";
  }
  return "?";
}

namespace {

/// Last-resort mutex for `critical` when the backend cannot produce one
/// even after its internal retries: exclusion must still hold, so degrade
/// to a plain process mutex (correct, just not an MRAPI-visible resource).
// tsa: erase-typed BackendMutex — see backend_native.cpp's NativeMutex.
class FallbackNativeMutex final : public BackendMutex {
 public:
  void lock() override { mu_.lock(); }
  void unlock() override { mu_.unlock(); }
  bool try_lock() override { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// One thread's env-ICV override for one runtime (keyed by the runtime's
/// serial: several runtimes coexist, and each needs its own per-thread
/// data environment).
struct EnvEntry {
  std::uint64_t serial;
  EnvIcvs icvs;
};

/// The calling thread's env-ICV overrides across all runtimes.  A handful
/// of entries at most (one per runtime the thread touched an ICV of, plus
/// one per nesting level while inside regions); entries for destroyed
/// runtimes are inert — the serial never recurs.
std::vector<EnvEntry>& env_overrides() {
  static thread_local std::vector<EnvEntry> t_entries;
  return t_entries;
}

/// The calling thread's last-region meters across all runtimes, keyed by
/// runtime serial (same multi-tenant shape as env_overrides: every master
/// owns its own snapshot, so concurrent masters never race on a shared
/// member).  A node-based map on purpose — last_region_meters() hands out
/// a reference that must survive later inserts for other runtimes.
std::map<std::uint64_t, std::vector<platform::Work>>& last_meters_map() {
  static thread_local std::map<std::uint64_t, std::vector<platform::Work>>
      t_meters;
  return t_meters;
}

std::atomic<std::uint64_t> g_runtime_serial{0};

/// Spreads concurrent masters' leases across clusters: a stable per-thread
/// preferred cluster, so one tenant's bursts keep hitting the same L2
/// while different tenants start from different clusters.
unsigned preferred_cluster_of_master(const platform::Topology& topo) {
  const unsigned n = std::max(1u, topo.num_clusters());
  return static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % n);
}

/// RAII witness of a region in flight (exception-safe: a throwing body
/// must not leave the reset guard stuck).
class RegionInFlight {
 public:
  explicit RegionInFlight(std::atomic<unsigned>& counter) : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_relaxed);
  }
  ~RegionInFlight() {
    // release: pairs with regions_in_flight()'s acquire load — a reader
    // seeing 0 sees the whole region retired.
    counter_.fetch_sub(1, std::memory_order_release);
  }
  RegionInFlight(const RegionInFlight&) = delete;
  RegionInFlight& operator=(const RegionInFlight&) = delete;

 private:
  std::atomic<unsigned>& counter_;
};

std::unique_ptr<SystemBackend> make_backend(const RuntimeOptions& opts) {
  if (opts.backend_factory) return opts.backend_factory();
  switch (opts.backend) {
    case BackendKind::kNative:
      return std::make_unique<NativeBackend>(opts.topology);
    case BackendKind::kMca:
      // The MRAPI domain models the same board the native backend is
      // configured with, so both runtimes see identical metadata.
      mrapi::Database::instance().configure_platform(opts.topology);
      return std::make_unique<McaBackend>(opts.domain);
  }
  return nullptr;
}

}  // namespace

Runtime::Runtime(RuntimeOptions opts)
    : serial_(g_runtime_serial.fetch_add(1, std::memory_order_relaxed) + 1),
      opts_(std::move(opts)),
      backend_(make_backend(opts_)) {
  icvs_ = opts_.icvs ? *opts_.icvs : Icvs::from_env(backend_->num_procs());
  icvs_.num_threads = std::min(icvs_.num_threads, icvs_.thread_limit);
  // The environment knob overrides the option default (a runtime-tuning
  // switch, same spirit as OMP_WAIT_POLICY).
  nested_bubble_ = opts_.nested_bubble;
  if (const char* env = std::getenv("OMPMCA_NESTED_PLACEMENT")) {
    const std::string_view v(env);
    if (v == "flat") {
      nested_bubble_ = false;
    } else if (v == "bubble") {
      nested_bubble_ = true;
    } else {
      OMPMCA_LOG_WARN(
          "OMPMCA_NESTED_PLACEMENT=%s: expected flat|bubble, ignoring", env);
    }
  }
  const platform::Topology& topo = opts_.topology;
  const unsigned per_cluster =
      topo.num_clusters() > 0 ? topo.num_hw_threads() / topo.num_clusters()
                              : topo.num_hw_threads();
  occupancy_ = std::make_unique<platform::ClusterOccupancy>(
      topo.num_clusters(), per_cluster);
  cluster_mem_ = std::make_unique<ClusterSlabCache>(*backend_);
  pool_ = std::make_unique<ThreadPool>(*backend_, icvs_.wait_policy,
                                       opts_.pool_max_workers);
  // Masters write their dispatch slots every fork; home the slot bank in
  // the primary master's cluster — placement(0) under either policy.
  pool_->home_slab(cluster_mem_.get(),
                   topo.cluster_of_hw_thread(topo.placement(0)));
  // Worker index -> home cluster for the lease policy's affinity scoring
  // (index i historically ran as tid i + 1; keep that placement model).
  std::vector<unsigned> worker_clusters(ThreadPool::kMaxWorkers);
  for (unsigned i = 0; i < ThreadPool::kMaxWorkers; ++i) {
    worker_clusters[i] = topo.cluster_of_hw_thread(topo.placement(i + 1));
  }
  pool_->set_worker_clusters(std::move(worker_clusters), topo.num_clusters());
}

Runtime::~Runtime() {
  // Pool (and its backend threads / MRAPI worker nodes) must retire before
  // the backend is destroyed; it releases its slab into cluster_mem_, which
  // frees through the backend, so the order is pool -> cache -> backend.
  pool_.reset();
  // Hot teams after the pool (no worker can still be inside one) and
  // before cluster_mem_, which their barriers release into.
  for (auto& team : hot_teams_) team.reset();
  criticals_.clear();
  cluster_mem_.reset();
  backend_.reset();
}

unsigned Runtime::resolve_num_threads(unsigned requested) const {
  // nthreads-var is per data environment (the calling thread's view);
  // thread_limit is the one global clamp.
  unsigned n = requested != 0 ? requested : env_icvs().num_threads;
  return std::clamp(n, 1u, icvs_.thread_limit);
}

EnvIcvs Runtime::env_icvs() const {
  for (const EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) return e.icvs;
  }
  return EnvIcvs{icvs_.num_threads, icvs_.nested};
}

void Runtime::set_env_num_threads(unsigned n) {
  n = std::clamp(n, 1u, icvs_.thread_limit);
  for (EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) {
      e.icvs.num_threads = n;
      return;
    }
  }
  env_overrides().push_back({serial_, EnvIcvs{n, icvs_.nested}});
}

void Runtime::set_env_nested(bool nested) {
  for (EnvEntry& e : env_overrides()) {
    if (e.serial == serial_) {
      e.icvs.nested = nested;
      return;
    }
  }
  env_overrides().push_back({serial_, EnvIcvs{icvs_.num_threads, nested}});
}

const std::vector<platform::Work>& Runtime::last_region_meters() const {
  const auto& meters = last_meters_map();
  auto it = meters.find(serial_);
  if (it == meters.end()) {
    static const std::vector<platform::Work> kEmpty;
    return kEmpty;
  }
  return it->second;
}

std::vector<platform::Work>& Runtime::last_meters_slot() {
  return last_meters_map()[serial_];
}

std::optional<EnvIcvs> Runtime::swap_env_override(std::optional<EnvIcvs> next) {
  auto& v = env_overrides();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].serial == serial_) {
      std::optional<EnvIcvs> prev = v[i].icvs;
      if (next) {
        v[i].icvs = *next;
      } else {
        v[i] = v.back();  // order is irrelevant; swap-remove
        v.pop_back();
      }
      return prev;
    }
  }
  if (next) v.push_back({serial_, *next});
  return std::nullopt;
}

BackendMutex& Runtime::critical_mutex(const std::string& name) {
  MutexLock lk(critical_mu_);
  auto it = criticals_.find(name);
  if (it == criticals_.end()) {
    auto mu = backend_->create_mutex();
    if (mu == nullptr) {
      OMPMCA_LOG_WARN(
          "critical(%s): backend mutex create failed, degrading to a native "
          "mutex",
          name.c_str());
      mu = std::make_unique<FallbackNativeMutex>();
    }
    it = criticals_.emplace(name, std::move(mu)).first;
    // release: pairs with unnamed_critical_mutex()'s acquire load.
    if (name.empty()) {
      unnamed_critical_.store(it->second.get(), std::memory_order_release);
    }
  }
  return *it->second;
}

ParallelContext* Runtime::current() { return t_current_; }

void Runtime::parallel(FunctionRef<void(ParallelContext&)> body,
                       unsigned num_threads) {
  obs::count(obs::Counter::kGompParallel);
  obs::ScopedTimer region_timer(obs::Hist::kGompParallelNs);
  obs::trace::Span region_span(obs::trace::Type::kParallel);
  // Marks this runtime busy for the whole region, so gomp_compat_reset()
  // can refuse to destroy it out from under a live team.
  RegionInFlight in_flight(regions_in_flight_);
  ParallelContext* outer = current();
  const bool nested = outer != nullptr;
  // A nested region serializes unless nest-var is set.
  unsigned n = nested && !env_icvs().nested
                   ? 1
                   : resolve_num_threads(num_threads);
  region_span.set_args(n, nested ? 1 : 0);

  if (n == 1) {
    // Width-1 fast path: no doorbell ring, no pool join bookkeeping, and
    // the Team skips barrier construction entirely — a serialized region
    // costs a Team frame and nothing else.
    if (!nested) obs::tenant::on_region(0, false);
    Team team(*this, 1, outer);
    team.run_thread(0, body);
    team.finish();
    return;
  }

  // Launch-or-park workers first: the returned width reflects launch
  // failures *and* lease pressure from concurrent masters, so the team (and
  // its barrier) never waits on a thread that does not exist.  The Dispatch
  // handle is this master's claim on its slot + lease; other application
  // threads — and nested masters inside running teams — fork through their
  // own handles concurrently.  A nested master prefers its own cluster's
  // workers, the cluster its bubble placement prefers too.
  const unsigned requested = n;
  const bool meter = obs::enabled() && !nested;
  const std::uint64_t fork_t0 = meter ? monotonic_nanos() : 0;
  const unsigned preferred =
      nested ? outer->team().cluster_of_thread(outer->thread_num())
             : preferred_cluster_of_master(opts_.topology);
  ThreadPool::Dispatch dispatch;
  n = pool_->prepare(dispatch, n, preferred);
  // Lease pressure can leave no workers at all; such a region runs on a
  // stack team, like the width-1 fast path.
  std::optional<Team> serial;
  Team& team = n > 1 ? hot_team(dispatch.slot(), n, outer)
                     : serial.emplace(*this, 1, outer);
  auto thread_fn = [&team, body](unsigned tid) { team.run_thread(tid, body); };
  pool_->start_team(dispatch, n, thread_fn);
  if (meter) {
    // Tenant attribution: prepare-to-ring latency and whether lease
    // pressure or launch failures narrowed this master's team.
    obs::tenant::on_region(monotonic_nanos() - fork_t0, n < requested);
  }
  thread_fn(0);
  // finish() runs after the join but before the slot is released: the
  // slot's next claimant may re-arm this team.
  pool_->wait_team(dispatch, [&team] { team.finish(); });
}

Team& Runtime::hot_team(int slot, unsigned n, ParallelContext* outer) {
  std::unique_ptr<Team>& team = hot_teams_[static_cast<unsigned>(slot)];
  if (team == nullptr || team->nthreads() != n || !team->rearm(outer)) {
    team.reset();  // its cluster-homed barrier returns to the cache first
    team = std::make_unique<Team>(*this, n, outer);
  }
  return *team;
}

void Runtime::parallel_for(long begin, long end,
                           FunctionRef<void(long, long)> body,
                           ScheduleSpec spec, unsigned num_threads) {
  parallel(
      [&](ParallelContext& ctx) {
        ctx.for_loop(begin, end, body, spec, /*nowait=*/true);
      },
      num_threads);
}

}  // namespace ompmca::gomp
