#include "fedcons/engine/batch_runner.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/check.h"

namespace fedcons {

std::uint64_t trial_seed(std::uint64_t master_seed,
                         std::uint64_t trial_index) noexcept {
  // SplitMix64 finalizer over a golden-ratio-spaced combination; two rounds
  // so that low-entropy (master, index) pairs still produce well-mixed
  // seeds for Rng's own SplitMix64 state expansion.
  std::uint64_t z = master_seed + 0x9e3779b97f4a7c15ull * (trial_index + 1);
  for (int round = 0; round < 2; ++round) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
  }
  return z;
}

struct BatchRunner::Impl {
  explicit Impl(int requested) {
    int threads = requested;
    if (threads == 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads < 1) threads = 1;
    }
    total_threads = threads;
    // The calling thread participates, so the pool holds threads − 1 workers.
    for (int t = 0; t < threads - 1; ++t) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    work_ready.notify_all();
    for (auto& w : workers) w.join();
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t size = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return stop || generation != seen_generation;
        });
        if (stop) return;
        seen_generation = generation;
        // A worker that wakes after parallel_for has already returned finds
        // the batch closed: every index ran, so there is nothing to join.
        // Reading the batch outside this critical section would let it see
        // the reset size, then steal (and drop) an index of the next batch.
        if (batch_fn == nullptr) continue;
        fn = batch_fn;
        size = batch_size;
        ++active;
      }
      drain(*fn, size);
      {
        std::lock_guard<std::mutex> lock(mutex);
        --active;
        if (active == 0) batch_done.notify_all();
      }
    }
  }

  /// Pull indices until the batch (fn over [0, limit)) is exhausted. The
  /// caller captured fn and limit while the batch was open and counted
  /// itself active, so the batch cannot close or be replaced meanwhile.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t limit) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit) break;
      try {
        FEDCONS_SPAN_V("engine", "trial", "index", i);
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
  }

  int total_threads = 1;
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable batch_done;
  bool stop = false;
  std::uint64_t generation = 0;
  int active = 0;

  const std::function<void(std::size_t)>* batch_fn = nullptr;
  std::size_t batch_size = 0;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
};

BatchRunner::BatchRunner(int num_threads) {
  FEDCONS_EXPECTS(num_threads >= 0);
  impl_ = std::make_unique<Impl>(num_threads);
}

BatchRunner::~BatchRunner() = default;

int BatchRunner::num_threads() const noexcept { return impl_->total_threads; }

void BatchRunner::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    im.batch_fn = &fn;
    im.batch_size = n;
    im.next.store(0, std::memory_order_relaxed);
    im.error = nullptr;
    ++im.generation;
  }
  im.work_ready.notify_all();
  im.drain(fn, n);  // the calling thread works too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(im.mutex);
    im.batch_done.wait(lock, [&] { return im.active == 0; });
    im.batch_fn = nullptr;
    im.batch_size = 0;
    error = im.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fedcons
