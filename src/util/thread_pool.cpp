#include "util/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"

namespace socpower {

namespace {
thread_local bool t_on_worker = false;
}  // namespace

unsigned resolve_thread_count(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

struct ThreadPool::Impl {
  /// State of one parallel_for invocation, shared by all participants.
  struct Loop {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};      // next unclaimed index
    std::atomic<std::size_t> finished{0};  // indices fully executed
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };

  std::vector<std::thread> workers;
  std::deque<std::function<void()>> queue;
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  bool stopping = false;

  void worker_main() {
    t_on_worker = true;
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lk(queue_mu);
        queue_cv.wait(lk, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      job();
    }
  }

  static void drain(const std::shared_ptr<Loop>& loop) {
    static telemetry::Counter& tasks =
        telemetry::registry().counter("pool.tasks");
    static telemetry::HistogramStat& task_us =
        telemetry::registry().histogram("pool.task_us");
    for (;;) {
      const std::size_t i = loop->next.fetch_add(1);
      if (i >= loop->n) return;
      const bool telem = telemetry::enabled();
      const auto t0 = telem ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      try {
        (*loop->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(loop->mu);
        if (i < loop->error_index) {
          loop->error_index = i;
          loop->error = std::current_exception();
        }
      }
      if (telem) {
        tasks.add();
        task_us.observe(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      }
      if (loop->finished.fetch_add(1) + 1 == loop->n) {
        // Take the lock so the notification cannot slip between the
        // waiter's predicate check and its wait.
        std::lock_guard<std::mutex> lk(loop->mu);
        loop->done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(std::make_unique<Impl>()) {
  const unsigned count = resolve_thread_count(threads);
  impl_->workers.reserve(count);
  for (unsigned t = 0; t < count; ++t)
    impl_->workers.emplace_back([this] { impl_->worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    impl_->stopping = true;
  }
  impl_->queue_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size());
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::submit(std::function<void()> job) {
  if (!job) return;
  if (on_worker_thread() || impl_->workers.empty()) {
    job();
    return;
  }
  {
    static telemetry::Gauge& depth =
        telemetry::registry().gauge("pool.queue_depth");
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    if (impl_->stopping) return;  // racing the destructor: drop, don't crash
    impl_->queue.emplace_back(std::move(job));
    depth.set(static_cast<std::int64_t>(impl_->queue.size()));
  }
  impl_->queue_cv.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (on_worker_thread() || impl_->workers.empty()) {
    // Nested (or degenerate) invocation: run inline. Serial semantics —
    // the first exception aborts the remaining iterations.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto loop = std::make_shared<Impl::Loop>();
  loop->n = n;
  loop->fn = &fn;

  const std::size_t participants = std::min<std::size_t>(impl_->workers.size(), n);
  {
    static telemetry::Gauge& depth =
        telemetry::registry().gauge("pool.queue_depth");
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    for (std::size_t p = 0; p < participants; ++p)
      impl_->queue.emplace_back([loop] { Impl::drain(loop); });
    depth.set(static_cast<std::int64_t>(impl_->queue.size()));
  }
  impl_->queue_cv.notify_all();

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(loop->mu);
    loop->done_cv.wait(lk, [&] { return loop->finished.load() == n; });
    // Take the exception out of the loop state: a worker may drop the last
    // reference to `loop` at any moment, and must not release the exception
    // the caller is about to read.
    error = std::move(loop->error);
  }
  if (error) std::rethrow_exception(std::move(error));
}

}  // namespace socpower
