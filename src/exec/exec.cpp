#include "exec/exec.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>

#include "fault/injector.hpp"
#include "obs/obs.hpp"

namespace fa::exec {

namespace {

thread_local bool t_on_worker = false;
thread_local int t_concurrency_limit = 0;

int default_worker_count() {
  if (const char* env = std::getenv("FA_THREADS");
      env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return std::min(parsed, ThreadPool::kMaxWorkers);
  }
  // One worker per hardware thread (0 when the host cannot tell).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, ThreadPool::kMaxWorkers);
}

// Per-region instrumentation handles, resolved once per work()/run()
// call so the per-chunk path never takes the registry lock. The chunk
// count is part of the deterministic chunk plan, so "exec.chunks" is
// identical at any thread count; "exec.steals" and the queue-depth
// histogram are scheduling-dependent by nature and excluded from the
// additivity contract (see obs.hpp).
struct ExecObs {
  obs::Counter* chunks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Histogram* chunk_ns = nullptr;
  obs::Histogram* queue_depth = nullptr;
  obs::Registry* registry = nullptr;

  static ExecObs resolve() {
    ExecObs handles;
    if (!obs::enabled()) return handles;
    obs::Registry& reg = obs::Registry::global();
    handles.registry = &reg;
    handles.chunks = &reg.counter("exec.chunks");
    handles.steals = &reg.counter("exec.steals");
    handles.chunk_ns = &reg.histogram("exec.chunk_ns");
    handles.queue_depth = &reg.histogram("exec.queue_depth");
    return handles;
  }
};

// Packs a [lo, hi) chunk span into one atomic word for CAS claiming.
std::uint64_t pack_span(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
std::uint32_t span_lo(std::uint64_t s) {
  return static_cast<std::uint32_t>(s >> 32);
}
std::uint32_t span_hi(std::uint64_t s) {
  return static_cast<std::uint32_t>(s & 0xFFFFFFFFULL);
}

}  // namespace

struct ThreadPool::Job {
  Job(std::size_t chunks, ChunkFnRef fn, int workers)
      : fn(fn),
        num_chunks(chunks),
        active_workers(workers),
        slots(static_cast<std::size_t>(workers)) {
    // Contiguous spans per worker; stealing rebalances at runtime, the
    // decomposition itself stays thread-count-independent (chunks are).
    const auto w = static_cast<std::size_t>(workers);
    for (std::size_t i = 0; i < w; ++i) {
      slots[i].store(pack_span(static_cast<std::uint32_t>(chunks * i / w),
                               static_cast<std::uint32_t>(chunks * (i + 1) / w)),
                     std::memory_order_relaxed);
    }
  }

  // Pops the front chunk of `worker`'s own span.
  std::optional<std::size_t> take_front(int worker) {
    std::atomic<std::uint64_t>& slot = slots[static_cast<std::size_t>(worker)];
    std::uint64_t s = slot.load(std::memory_order_acquire);
    while (span_lo(s) < span_hi(s)) {
      if (slot.compare_exchange_weak(s, pack_span(span_lo(s) + 1, span_hi(s)),
                                     std::memory_order_acq_rel)) {
        return span_lo(s);
      }
    }
    return std::nullopt;
  }

  // Steals the back half of some other worker's span into `worker`'s
  // (empty) slot, returning the first stolen chunk.
  std::optional<std::size_t> steal(int worker) {
    const int w = active_workers;
    for (int delta = 1; delta < w; ++delta) {
      const int victim = (worker + delta) % w;
      std::atomic<std::uint64_t>& slot =
          slots[static_cast<std::size_t>(victim)];
      std::uint64_t s = slot.load(std::memory_order_acquire);
      while (true) {
        const std::uint32_t lo = span_lo(s);
        const std::uint32_t hi = span_hi(s);
        if (lo >= hi) break;
        const std::uint32_t mid = hi - lo >= 2 ? lo + (hi - lo) / 2 : lo;
        if (!slot.compare_exchange_weak(s, pack_span(lo, mid),
                                        std::memory_order_acq_rel)) {
          continue;
        }
        // Stolen [mid, hi) (== [lo, hi) when the victim had one chunk):
        // execute `mid` now, park the rest in our own slot.
        if (mid + 1 < hi) {
          slots[static_cast<std::size_t>(worker)].store(
              pack_span(mid + 1, hi), std::memory_order_release);
        }
        return mid;
      }
    }
    return std::nullopt;
  }

  void record_error(std::exception_ptr err) {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::move(err);
    }
    cancelled.store(true, std::memory_order_release);
  }

  ChunkFnRef fn;
  std::size_t num_chunks;
  int active_workers;
  std::vector<std::atomic<std::uint64_t>> slots;
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;
  int joined = 0;  // workers inside work(); guarded by Impl::mu
};

struct ThreadPool::Impl {
  std::mutex run_mu;  // serializes parallel regions
  std::mutex mu;      // guards job/epoch/stop/Job::joined
  std::condition_variable cv;
  Job* job = nullptr;
  std::uint64_t epoch = 0;
  bool stop = false;
  std::vector<std::thread> threads;
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl) {
  max_workers_ =
      threads >= 1 ? std::min(threads, kMaxWorkers) : default_worker_count();
  impl_->threads.reserve(static_cast<std::size_t>(max_workers_ - 1));
  for (int id = 1; id < max_workers_; ++id) {
    impl_->threads.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::work(Job& job, int worker_id) {
  const bool was_on_worker = t_on_worker;
  t_on_worker = true;
  const fault::Injector& inj = fault::Injector::global();
  const ExecObs ob = ExecObs::resolve();
  while (true) {
    std::optional<std::size_t> chunk = job.take_front(worker_id);
    if (!chunk) {
      chunk = job.steal(worker_id);
      if (chunk && ob.steals != nullptr) ob.steals->add();
    }
    if (!chunk) break;
    if (!job.cancelled.load(std::memory_order_acquire)) {
      try {
        if (inj.armed()) inj.fail_point("exec.chunk", *chunk);
        if (ob.registry != nullptr) {
          ob.queue_depth->record(
              job.num_chunks - job.done.load(std::memory_order_relaxed));
          const std::uint64_t t0 = ob.registry->now_ns();
          job.fn(*chunk, worker_id);
          ob.chunk_ns->record(ob.registry->now_ns() - t0);
          ob.chunks->add();
        } else {
          job.fn(*chunk, worker_id);
        }
      } catch (...) {
        job.record_error(std::current_exception());
      }
    }
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
  t_on_worker = was_on_worker;
}

void ThreadPool::worker_loop(int worker_id) {
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv.wait(lock, [&] {
        return impl_->stop || (impl_->job != nullptr && impl_->epoch != seen);
      });
      if (impl_->stop) return;
      seen = impl_->epoch;
      if (worker_id >= impl_->job->active_workers) continue;
      job = impl_->job;
      ++job->joined;
    }
    work(*job, worker_id);
    {
      const std::lock_guard<std::mutex> lock(impl_->mu);
      --job->joined;
    }
    impl_->cv.notify_all();
  }
}

void ThreadPool::run(std::size_t num_chunks, ChunkFnRef fn) {
  if (num_chunks == 0) return;
  int workers = max_workers_;
  if (const int limit = ConcurrencyLimit::current(); limit >= 1) {
    workers = std::min(workers, limit);
  }
  workers = std::min(workers, static_cast<int>(num_chunks));

  // Serial inline path: nested region, single worker, or a single chunk.
  // Same chunk decomposition, executed in chunk order on this thread.
  // Chunk accounting matches the pooled path exactly, so "exec.chunks"
  // and "exec.regions" are invariant across thread counts.
  if (t_on_worker || workers <= 1) {
    const bool was_on_worker = t_on_worker;
    t_on_worker = true;
    const fault::Injector& inj = fault::Injector::global();
    const ExecObs ob = ExecObs::resolve();
    if (ob.registry != nullptr) {
      ob.registry->counter("exec.regions").add();
      ob.registry->counter("exec.inline_regions").add();
    }
    try {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
        if (inj.armed()) inj.fail_point("exec.chunk", chunk);
        if (ob.registry != nullptr) {
          ob.queue_depth->record(num_chunks - chunk);
          const std::uint64_t t0 = ob.registry->now_ns();
          fn(chunk, 0);
          ob.chunk_ns->record(ob.registry->now_ns() - t0);
          ob.chunks->add();
        } else {
          fn(chunk, 0);
        }
      }
    } catch (...) {
      t_on_worker = was_on_worker;
      throw;
    }
    t_on_worker = was_on_worker;
    return;
  }

  obs::Span region_span("exec.region");
  obs::count("exec.regions");
  const std::lock_guard<std::mutex> region(impl_->run_mu);
  Job job(num_chunks, fn, workers);
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = &job;
    ++impl_->epoch;
  }
  impl_->cv.notify_all();
  work(job, 0);
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->cv.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == num_chunks &&
             job.joined == 0;
    });
    impl_->job = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ConcurrencyLimit::ConcurrencyLimit(int max_threads)
    : previous_(t_concurrency_limit) {
  t_concurrency_limit = std::max(0, max_threads);
}

ConcurrencyLimit::~ConcurrencyLimit() { t_concurrency_limit = previous_; }

int ConcurrencyLimit::current() { return t_concurrency_limit; }

}  // namespace fa::exec
