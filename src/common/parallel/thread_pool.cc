#include "common/parallel/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pgpub {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Depth of ParallelFor chunks executing on this thread. Non-zero means
/// the thread is inside a parallel region (worker or caller, pooled or
/// serial inline) and further data parallelism must be rejected.
thread_local int tls_parallel_depth = 0;

class ScopedParallelRegion {
 public:
  ScopedParallelRegion() { ++tls_parallel_depth; }
  ~ScopedParallelRegion() { --tls_parallel_depth; }
};

}  // namespace

int ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("PGPUB_THREADS")) {
    if (*env != '\0') {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != nullptr && *end == '\0' && v >= 1) {
        return static_cast<int>(v);
      }
      // A malformed PGPUB_THREADS falls through to the hardware default:
      // a perf knob must never turn a working publish into an abort.
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool* ThreadPool::Shared() {
  // Latched on first use; intentionally leaked so worker threads never
  // race static destruction at exit.
  static ThreadPool* const shared = [] {
    const int n = DefaultNumThreads();
    return n > 1 ? new ThreadPool(n) : nullptr;
  }();
  return shared;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Start() {
  MutexLock lock(&mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  obs::MetricsRegistry::Global()
      .GetGauge("parallel.workers")
      ->Set(static_cast<double>(num_threads_));
}

void ThreadPool::Stop() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stopping_ = true;
    to_join.swap(workers_);
  }
  cv_.NotifyAll();
  for (std::thread& t : to_join) t.join();
  {
    MutexLock lock(&mu_);
    running_ = false;
    stopping_ = false;
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  // Idempotent and cheap when already running; calling it unconditionally
  // keeps Submit's own critical section a single straight-line scope,
  // which is all the static analysis can certify.
  Start();
  {
    MutexLock lock(&mu_);
    queue_.emplace_back(std::move(task), SteadyNowNs());
  }
  cv_.NotifyOne();
}

bool ThreadPool::InParallelRegion() { return tls_parallel_depth > 0; }

void ThreadPool::WorkerLoop() {
  obs::Histogram* const wait_hist =
      obs::MetricsRegistry::Global().GetHistogram("parallel.steal_or_queue_wait");
  for (;;) {
    std::pair<std::function<void()>, uint64_t> task;
    {
      MutexLock lock(&mu_);
      // Predicate loop in the open (not a wait-lambda): the analysis can
      // only see guarded reads made directly in the locked scope.
      while (!stopping_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const uint64_t now = SteadyNowNs();
    wait_hist->Observe(now >= task.second ? now - task.second : 0);
    task.first();
  }
}

Status ParallelFor(ThreadPool* pool, IndexRange range, size_t grain,
                   const std::function<Status(size_t, size_t)>& fn) {
  if (grain == 0) {
    return Status::InvalidArgument("ParallelFor grain must be >= 1");
  }
  const size_t n = range.size();
  if (n == 0) return Status::OK();
  if (ThreadPool::InParallelRegion()) {
    return Status::FailedPrecondition(
        "nested ParallelFor: already inside a parallel chunk");
  }
  const size_t num_chunks = (n + grain - 1) / grain;
  obs::MetricsRegistry::Global().GetCounter("parallel.tasks")->Add(num_chunks);

  // The caller's trace context rides into every chunk, so spans emitted
  // inside parallel work link to the request that spawned it regardless of
  // which pool thread runs the chunk (workers serve many traces; the
  // snapshot, not the thread, carries identity).
  const obs::TraceContext::Snapshot trace_context =
      obs::TraceContext::Current();

  // Runs chunk `chunk`, converting an escaping exception into Status so
  // nothing unwinds across a pool thread.
  auto run_chunk = [&](size_t chunk) -> Status {
    const size_t chunk_begin = range.begin + chunk * grain;
    const size_t chunk_end =
        chunk + 1 == num_chunks ? range.end : chunk_begin + grain;
    ScopedParallelRegion region;
    obs::TraceContext::Scope trace_scope(trace_context);
    try {
      return fn(chunk_begin, chunk_end);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("uncaught exception in parallel "
                                          "task: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("uncaught non-std exception in parallel task");
    }
  };

  if (pool == nullptr || pool->num_threads() <= 1 || num_chunks == 1) {
    // Serial inline path: same chunking, same first-failing-chunk error.
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      Status st = run_chunk(chunk);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  // Shared by the caller and the pool runners; kept alive by shared_ptr so
  // the caller may return (on the last completed chunk) while late-woken
  // runner bodies are still unwinding.
  struct State {
    explicit State(size_t n) : num_chunks(n), statuses(n, Status::OK()) {}
    const size_t num_chunks;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> done_chunks{0};
    // One slot per chunk; each slot is written by exactly one runner, and
    // the caller only reads after the done_chunks barrier, so the slots
    // need no guard. pgpub-lint: allow(L9)
    std::vector<Status> statuses;
    Mutex mu{"parallel.for_done"};
    CondVar done_cv;
  };
  auto state = std::make_shared<State>(num_chunks);

  auto runner = [state, run_chunk]() {
    for (;;) {
      const size_t chunk =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= state->num_chunks) return;
      state->statuses[chunk] = run_chunk(chunk);
      if (state->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->num_chunks) {
        // Publish completion. The lock pairs with the caller's wait so the
        // notify cannot slip between its predicate check and its sleep.
        MutexLock lock(&state->mu);
        state->done_cv.NotifyAll();
      }
    }
  };

  const size_t helpers = std::min<size_t>(
      static_cast<size_t>(pool->num_threads()), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) pool->Submit(runner);
  runner();  // the caller participates — a busy pool delays, never deadlocks

  {
    MutexLock lock(&state->mu);
    while (state->done_chunks.load(std::memory_order_acquire) !=
           state->num_chunks) {
      state->done_cv.Wait(&state->mu);
    }
  }

  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    if (!state->statuses[chunk].ok()) return state->statuses[chunk];
  }
  return Status::OK();
}

PoolLease::PoolLease(int num_threads) {
  // Negative counts are rejected at the options boundary
  // (ValidatePgOptions); here they degrade to the serial path rather
  // than abort, since a lease has no Status channel.
  if (num_threads < 0) num_threads = 1;
  if (num_threads == 0) {
    pool_ = ThreadPool::Shared();  // nullptr when the default is serial
    resolved_ = pool_ != nullptr ? pool_->num_threads() : 1;
    return;
  }
  resolved_ = num_threads;
  if (num_threads == 1) return;  // serial: pool_ stays nullptr
  ThreadPool* shared = ThreadPool::Shared();
  if (shared != nullptr && shared->num_threads() == num_threads) {
    pool_ = shared;
    return;
  }
  owned_ = std::make_unique<ThreadPool>(num_threads);
  pool_ = owned_.get();
}

}  // namespace pgpub
