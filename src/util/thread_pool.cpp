#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace expmk::util {

namespace {

/// One parallel for_each_chunk call. It lives on the caller's stack and
/// is listed in the pool until the caller has claimed past the last
/// chunk; the caller returns only once no helper is still inside it.
struct Job {
  const std::function<void(std::size_t)>& body;
  const std::size_t chunks;
  std::atomic<std::size_t> next{0};  // next unclaimed chunk index
  // Guarded by Pool::m_:
  std::size_t open_slots = 0;  // helpers that may still join
  std::size_t active = 0;      // helpers inside the job
  std::size_t error_chunk = 0;
  std::exception_ptr error{};
};

/// The process-wide helper threads. Helpers sleep on `work_cv_` until a
/// listed job has both an unclaimed chunk and an open slot; a caller
/// sleeps on `done_cv_` until its job's last helper has left.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  void run(Job& job) {
    {
      const std::lock_guard<std::mutex> lock(m_);
      const std::size_t want = std::min(job.open_slots, max_helpers_);
      while (helpers_.size() < want) {
        helpers_.emplace_back([this] { helper_loop(); });
      }
      jobs_.push_back(&job);
    }
    work_cv_.notify_all();
    work(job);
    std::unique_lock<std::mutex> lock(m_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    done_cv_.wait(lock, [&] { return job.active == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  void work(Job& job) {
    for (;;) {
      const std::size_t c = job.next.fetch_add(1);
      if (c >= job.chunks) return;
      try {
        job.body(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m_);
        if (!job.error || c < job.error_chunk) {
          job.error = std::current_exception();
          job.error_chunk = c;
        }
      }
    }
  }

  Job* open_job() const {
    for (Job* job : jobs_) {
      if (job->open_slots > 0 && job->next.load() < job->chunks) {
        return job;
      }
    }
    return nullptr;
  }

  void helper_loop() {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      Job* job = nullptr;
      work_cv_.wait(lock, [&] {
        return stopping_ || (job = open_job()) != nullptr;
      });
      if (stopping_) return;
      --job->open_slots;
      ++job->active;
      lock.unlock();
      work(*job);
      lock.lock();
      if (--job->active == 0) done_cv_.notify_all();
    }
  }

  const std::size_t max_helpers_ = resolve_threads(0) - 1;
  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Job*> jobs_;
  std::vector<std::thread> helpers_;
  bool stopping_ = false;
};

}  // namespace

std::size_t resolve_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void for_each_chunk(std::size_t workers, std::size_t chunks,
                    const std::function<void(std::size_t)>& body) {
  if (workers <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) body(c);
    return;
  }
  // Constructed on first parallel call, destroyed (helpers joined) at
  // process exit.
  static Pool pool;
  Job job{.body = body,
          .chunks = chunks,
          .open_slots = std::min(workers, chunks) - 1};
  pool.run(job);
}

}  // namespace expmk::util
