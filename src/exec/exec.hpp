// fa::exec — the parallel execution substrate: a dependency-free
// work-stealing thread pool with deterministic chunked parallel_for /
// parallel_reduce.
//
// Determinism contract: the decomposition of an iteration space into
// chunks depends only on (n, grain) — never on the worker count or on
// runtime scheduling. Chunk outputs are written to chunk-indexed slots
// (parallel_reduce combines partials serially in chunk order), so a
// region produces bit-identical results at any thread count, including
// the inline serial path. Which *worker* runs a chunk is scheduling-
// dependent; per-worker scratch is therefore for buffer reuse only,
// never for result accumulation.
//
// Exception propagation: the first exception thrown by a chunk body is
// captured, remaining chunks are cancelled (claimed but not executed),
// and the exception is rethrown on the calling thread.
//
// Nested parallelism: a region launched from inside a worker runs its
// chunks inline and serially on that worker — safe by construction, no
// pool re-entry, same chunk decomposition.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fa::exec {

// Default iterations per chunk when the caller does not specify a grain.
inline constexpr std::size_t kDefaultGrain = 1024;
// Upper bound on chunks per region; keeps scheduling state small while
// leaving plenty of slack for stealing (64x a typical worker count).
inline constexpr std::size_t kMaxChunks = 4096;

struct ExecOptions {
  // Target iterations per chunk (0 = kDefaultGrain). Part of the chunk
  // plan, so changing it changes float-reduction results; thread count
  // never does. (ConcurrencyLimit caps a region's threads.)
  std::size_t grain = 0;
};

// The deterministic chunk decomposition of [0, n).
struct ChunkPlan {
  std::size_t n = 0;
  std::size_t chunks = 0;

  static ChunkPlan make(std::size_t n, std::size_t grain) {
    ChunkPlan plan;
    plan.n = n;
    if (n == 0) return plan;
    if (grain == 0) grain = kDefaultGrain;
    plan.chunks = std::min((n + grain - 1) / grain, kMaxChunks);
    return plan;
  }
  std::pair<std::size_t, std::size_t> bounds(std::size_t chunk) const {
    return {n * chunk / chunks, n * (chunk + 1) / chunks};
  }
};

// Non-owning reference to a chunk body `void(chunk, worker)`; avoids a
// std::function allocation per region.
class ChunkFnRef {
 public:
  // Constrained so copying a ChunkFnRef uses the copy constructor —
  // an unconstrained F& overload would win against it for lvalues and
  // wrap a pointer to the (shorter-lived) ChunkFnRef itself.
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, ChunkFnRef>)
  ChunkFnRef(F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](void* o, std::size_t chunk, int worker) {
          (*static_cast<F*>(o))(chunk, worker);
        }) {}
  ChunkFnRef(const ChunkFnRef&) = default;
  ChunkFnRef& operator=(const ChunkFnRef&) = default;
  void operator()(std::size_t chunk, int worker) const {
    call_(obj_, chunk, worker);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t, int);
};

// Work-stealing pool. Workers own contiguous spans of the chunk array,
// pop from the front of their own span and steal the back half of a
// victim's span when theirs runs dry. One region runs at a time; the
// calling thread participates as worker 0.
class ThreadPool {
 public:
  // threads == 0: FA_THREADS env if set, else hardware_concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total workers including the caller (>= 1).
  int max_workers() const { return max_workers_; }

  // Process-wide pool used by the parallel_* algorithms.
  static ThreadPool& global();

  // Invokes fn(chunk, worker) exactly once per chunk in [0, num_chunks),
  // blocking until all complete; rethrows the first chunk exception.
  // worker ids are in [0, max_workers()); the calling thread's
  // ConcurrencyLimit caps how many run.
  void run(std::size_t num_chunks, ChunkFnRef fn);

  // True on threads currently executing a chunk body (used to run nested
  // regions inline).
  static bool on_worker_thread();

  static constexpr int kMaxWorkers = 256;

 private:
  struct Job;
  struct Impl;
  void worker_loop(int worker_id);
  static void work(Job& job, int worker_id);

  Impl* impl_;
  int max_workers_ = 1;
};

// Scoped cap on the workers used by regions launched from this thread
// (including regions inside library calls). 1 forces the serial inline
// path. Results are unaffected — see the determinism contract.
class ConcurrencyLimit {
 public:
  explicit ConcurrencyLimit(int max_threads);
  ~ConcurrencyLimit();
  ConcurrencyLimit(const ConcurrencyLimit&) = delete;
  ConcurrencyLimit& operator=(const ConcurrencyLimit&) = delete;

  // The cap active on this thread (0 = none).
  static int current();

 private:
  int previous_;
};

struct ChunkContext {
  std::size_t chunk = 0;  // deterministic: index into the chunk plan
  int worker = 0;         // scheduling-dependent: scratch slot only
};

// body(begin, end, ChunkContext) per chunk. The workhorse primitive.
template <class Body>
void parallel_for_chunks(std::size_t n, Body&& body, ExecOptions opt = {}) {
  const ChunkPlan plan = ChunkPlan::make(n, opt.grain);
  if (plan.chunks == 0) return;
  auto chunk_fn = [&plan, &body](std::size_t chunk, int worker) {
    const auto [begin, end] = plan.bounds(chunk);
    body(begin, end, ChunkContext{chunk, worker});
  };
  ThreadPool::global().run(plan.chunks, ChunkFnRef(chunk_fn));
}

// body(i) for every i in [0, n), grouped into chunks.
template <class Body>
void parallel_for(std::size_t n, Body&& body, ExecOptions opt = {}) {
  parallel_for_chunks(
      n,
      [&body](std::size_t begin, std::size_t end, ChunkContext) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      opt);
}

// map(begin, end, T& acc) accumulates a chunk into a zero-initialized
// (copy of `identity`) partial; combine(T& into, T&& part) folds the
// partials serially in chunk order. Deterministic for floats.
template <class T, class Map, class Combine>
T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine,
                  ExecOptions opt = {}) {
  const ChunkPlan plan = ChunkPlan::make(n, opt.grain);
  T total = std::move(identity);
  if (plan.chunks == 0) return total;
  std::vector<T> parts(plan.chunks, total);
  auto chunk_fn = [&plan, &map, &parts](std::size_t chunk, int worker) {
    (void)worker;
    const auto [begin, end] = plan.bounds(chunk);
    map(begin, end, parts[chunk]);
  };
  ThreadPool::global().run(plan.chunks, ChunkFnRef(chunk_fn));
  for (T& part : parts) combine(total, std::move(part));
  return total;
}

// One slot per pool worker, for reusable buffers inside chunk bodies
// (index with ChunkContext::worker). Slot contents after a region are
// scheduling-dependent — never fold them into results.
template <class T>
class WorkerScratch {
 public:
  explicit WorkerScratch(T init = T{})
      : slots_(static_cast<std::size_t>(ThreadPool::global().max_workers()),
               std::move(init)) {}
  T& at(int worker) { return slots_[static_cast<std::size_t>(worker)]; }
  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
};

}  // namespace fa::exec
