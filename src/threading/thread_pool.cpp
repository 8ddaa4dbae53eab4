#include "threading/thread_pool.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "threading/backoff.hpp"

namespace tlp {

namespace {

// Yield rounds a worker spends waiting for a job before parking on the
// condition variable.  OpenMP runtimes actively wait ~100us by default
// (OMP_WAIT_POLICY=active) because fork-join latency dominates stencil codes
// with thousands of small regions per second; the backoff's pause phase plus
// this yield budget gives the same order of magnitude on a loaded machine
// while still releasing the CPU between distant regions.
constexpr long kParkAfterYields = 64;

}  // namespace

int default_threads() {
  if (const char* env = std::getenv("TL_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      reduce_slots_(static_cast<std::size_t>(num_threads_)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int tid = 1; tid < num_threads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_main(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The mutex pairs with a parking worker's predicate re-check: either it
    // sees shutdown before sleeping, or it is already asleep and gets the
    // notify below.  Spinning workers see the release store lock-free.
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_seq_cst);
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main(int tid) {
  long seen_generation = 0;
  for (;;) {
    // Fast path: bounded-burst backoff spin on the generation counter.
    Backoff backoff;
    while (generation_.load(std::memory_order_acquire) == seen_generation &&
           !shutdown_.load(std::memory_order_relaxed)) {
      if (backoff.yields() >= kParkAfterYields) {
        // Park until the next job.  The predicate runs under the mutex, so
        // a dispatch between our last spin check and the wait cannot be
        // missed (the dispatcher bumps the generation before deciding
        // whether anyone needs a notify).
        // seq_cst on the parked_ increment and the generation re-check pairs
        // with the dispatcher's seq_cst bump + parked_ read (Dekker): either
        // the dispatcher sees us parked and notifies, or we see its bump.
        std::unique_lock<std::mutex> lock(mutex_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        start_cv_.wait(lock, [&] {
          return shutdown_.load(std::memory_order_relaxed) ||
                 generation_.load(std::memory_order_seq_cst) !=
                     seen_generation;
        });
        parked_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      backoff.pause();
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen_generation = generation_.load(std::memory_order_acquire);
    const std::function<void(int, int)>* job = job_;

    try {
      (*job)(tid, num_threads_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    remaining_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::parallel_region(const std::function<void(int, int)>& body) {
  if (num_threads_ == 1) {
    body(0, 1);
    return;
  }
  job_ = &body;
  remaining_.store(num_threads_ - 1, std::memory_order_relaxed);
  // Publish: job_ and remaining_ above are ordered before this increment
  // (seq_cst subsumes release); workers acquire the generation and then
  // read them safely.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  // Wake parked workers only — spinning workers have already seen the bump.
  // A worker racing towards parking cannot be lost: its wait predicate
  // re-checks the generation under the mutex and returns immediately.
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    start_cv_.notify_all();
  }

  // The caller is thread 0 of the region, like an OpenMP primary thread.
  try {
    body(0, num_threads_);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  // Join: backoff spin on the remaining-count (worker tails are short; the
  // backoff degrades to yields on oversubscribed machines).
  Backoff backoff;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    backoff.pause();
  }
  job_ = nullptr;

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::run_loop(long begin, long end, ForOptions opts,
                          const std::function<void(int, long, long)>& chunk_body) {
  const long n = end - begin;
  if (n <= 0) return;
  if (num_threads_ == 1) {
    chunk_body(0, begin, end);
    return;
  }

  switch (opts.schedule) {
    case Schedule::kStatic: {
      parallel_region([&](int tid, int nthreads) {
        const StaticRange r = static_partition(begin, end, tid, nthreads);
        if (r.begin < r.end) chunk_body(tid, r.begin, r.end);
      });
      break;
    }
    case Schedule::kDynamic: {
      const long chunk =
          opts.chunk > 0 ? opts.chunk
                         : std::max<long>(1, n / (num_threads_ * 8));
      std::atomic<long> next(begin);
      parallel_region([&](int tid, int) {
        for (;;) {
          const long lo = next.fetch_add(chunk, std::memory_order_relaxed);
          if (lo >= end) break;
          chunk_body(tid, lo, std::min(lo + chunk, end));
        }
      });
      break;
    }
    case Schedule::kGuided: {
      const long min_chunk = opts.chunk > 0 ? opts.chunk : 1;
      std::atomic<long> next(begin);
      parallel_region([&](int tid, int nthreads) {
        for (;;) {
          // Guided: each grab takes remaining/(2*nthreads), floored at
          // min_chunk.  Races over-estimate `remaining` harmlessly.
          const long observed = next.load(std::memory_order_relaxed);
          if (observed >= end) break;
          const long want = std::max<long>(
              min_chunk, (end - observed) / (2 * nthreads));
          const long lo = next.fetch_add(want, std::memory_order_relaxed);
          if (lo >= end) break;
          chunk_body(tid, lo, std::min(lo + want, end));
        }
      });
      break;
    }
  }
}

void ThreadPool::parallel_for(long begin, long end,
                              const std::function<void(long, long)>& body,
                              ForOptions opts) {
  run_loop(begin, end, opts,
           [&](int /*tid*/, long lo, long hi) { body(lo, hi); });
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_threads());
  return pool;
}

}  // namespace tlp
