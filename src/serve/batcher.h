#ifndef STHSL_SERVE_BATCHER_H_
#define STHSL_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl::serve {

/// Dynamic micro-batcher: concurrent callers submit single input windows,
/// a fixed pool of worker threads drains them in batches. A forming batch
/// is flushed when it reaches `max_batch_size`, when the oldest queued
/// request has waited `max_wait_us`, or immediately during shutdown drain —
/// so a lone request pays at most the wait bound while a burst is handed to
/// the batch function in one call.
class MicroBatcher {
 public:
  struct Config {
    /// Requests per flushed batch (upper bound).
    int64_t max_batch_size = 8;
    /// Longest a queued request may wait for company before its batch is
    /// flushed anyway.
    int64_t max_wait_us = 2000;
    /// Worker threads executing batches (each runs the batch function
    /// independently, so flushed batches overlap).
    int64_t worker_threads = 2;
  };

  /// Flush accounting, exposed for tests and the /metrics endpoint.
  struct Stats {
    int64_t batches = 0;
    int64_t requests = 0;
    int64_t size_flushes = 0;     // batch reached max_batch_size
    int64_t timeout_flushes = 0;  // oldest request hit max_wait_us
    int64_t drain_flushes = 0;    // flushed during Shutdown drain
  };

  /// Executes one batch: receives the batch's input windows, returns one
  /// prediction per input, in order. Must be callable from multiple worker
  /// threads concurrently and must not fail (callers validate inputs before
  /// Submit). The engine passes Forecaster::PredictWindows, which runs the
  /// windows one after another and writes no model state, so every worker
  /// calls the same loaded model (ServeLoopbackTest.
  /// ConcurrentRequestsAllAnswered checks the answers bitwise).
  using BatchFn =
      std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;

  /// What a Submit future resolves with: the prediction plus this request's
  /// share of the batch timeline, for per-stage tracing.
  struct Ticket {
    Tensor value;  // undefined when the batcher was already draining
    /// Submit enqueue → a worker dequeued this request.
    double queue_wait_us = 0.0;
    /// Dequeue → the batch function was entered (moving inputs/promises and
    /// flush accounting); shared by every request in the batch.
    double batch_assembly_us = 0.0;
    /// Wall time of the batch function (stacking + forward); shared by
    /// every request in the batch.
    double inference_us = 0.0;
    /// Requests in the batch this one rode in (0 when rejected by drain).
    int64_t batch_size = 0;
  };

  MicroBatcher(Config config, BatchFn fn);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one window. The future resolves with the prediction once the
  /// window's batch has run. After Shutdown the returned future resolves
  /// immediately with a Ticket holding an undefined Tensor (callers
  /// translate that into an unavailable error).
  std::future<Ticket> Submit(Tensor window);

  /// Graceful drain: rejects new submissions, flushes everything already
  /// queued, then joins the workers. Idempotent.
  void Shutdown();

  Stats GetStats() const;

 private:
  struct Pending {
    Tensor input;
    std::promise<Ticket> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  const Config config_;
  const BatchFn fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace sthsl::serve

#endif  // STHSL_SERVE_BATCHER_H_
