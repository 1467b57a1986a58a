// Work-stealing std::thread pool for stepping simulated machines in
// parallel within one synchronous round.
//
// The unit of work is an index range: parallelFor(n, fn) splits [0, n) into
// one contiguous slice per lane (the calling thread is lane 0), each lane
// drains its slice front-to-back, and a lane that runs dry steals the upper
// half of the fullest remaining slice. Scheduling is dynamic, but callers
// write to disjoint outputs, so the result of every parallelFor is
// bit-identical no matter how many threads execute it — the determinism the
// round engine's tests pin down.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpcspan::runtime {

class ThreadPool {
 public:
  /// `threads` counts lanes *including* the calling thread, so
  /// ThreadPool(1) spawns no workers and runs everything inline.
  /// 0 selects the default (MPCSPAN_THREADS env var, else
  /// std::thread::hardware_concurrency()).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t numThreads() const { return lanes_.size(); }

  /// Runs fn(i) for every i in [0, n); blocks until all indices ran.
  /// Rethrows the first exception fn threw (remaining indices are skipped).
  /// One job at a time: must not be called re-entrantly from inside fn,
  /// nor concurrently from two threads on the same pool (a second caller
  /// would re-stamp the first caller's lanes and lose indices).
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked variant for fine-grained loops: runs fn(begin, end) over
  /// fixed-size chunks of [0, n). Chunking depends only on n and chunk —
  /// never on the thread count — so any chunk-indexed output is
  /// thread-count independent.
  void parallelForChunks(std::size_t n, std::size_t chunk,
                         const std::function<void(std::size_t, std::size_t)>& fn);

  /// MPCSPAN_THREADS (>= 1; a malformed value throws std::invalid_argument
  /// naming the variable), else hardware concurrency.
  static std::size_t defaultThreads();

 private:
  struct Lane {
    std::mutex m;
    std::size_t next = 0;  // first unclaimed index of the slice
    std::size_t end = 0;   // one past the last index of the slice
    std::uint64_t gen = 0;  // generation the slice belongs to
  };

  void ensureWorkers();
  void workerLoop(std::size_t lane);
  void runLanes(std::size_t self, std::uint64_t gen);
  bool claimOwn(std::size_t lane, std::size_t& idx);
  bool stealInto(std::size_t thief, std::uint64_t gen);
  void execute(std::size_t idx);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;

  std::mutex jobMutex_;
  std::condition_variable jobCv_;   // workers wait for a new generation
  std::condition_variable doneCv_;  // caller waits for remaining_ == 0
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> remaining_{0};
  std::size_t started_ = 0;  // workers that reached workerLoop
  bool shutdown_ = false;

  std::mutex errorMutex_;
  std::exception_ptr error_;
  std::atomic<bool> abort_{false};  // hint: skip remaining indices
};

}  // namespace mpcspan::runtime
