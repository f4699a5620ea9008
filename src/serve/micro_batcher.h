#ifndef SBRL_SERVE_MICRO_BATCHER_H_
#define SBRL_SERVE_MICRO_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/serving_model.h"

namespace sbrl {
namespace serve {

/// Coalesces concurrent single-row scoring requests into batched
/// forward passes over one shared ServingModel. Client threads block
/// in ScoreRow until their row is scored; a dedicated dispatcher
/// thread drains the queue and runs one batched forward per dispatch.
///
/// Linger rule (self-clocking): the dispatcher lingers only while the
/// queue holds fewer rows than the previous dispatch took (capped at
/// max_batch), up to max_wait, and never once Shutdown starts. A lone
/// client dispatches at once; c closed-loop clients dispatch as soon
/// as all c have resent; rows that pile up during a forward are all
/// taken, so the target rises with load. A full max_wait is paid only
/// when concurrency drops (a client leaves), at most once per drop.
///
/// Determinism contract: because each ServingModel output row depends
/// only on its input row (and per-row OOD stamps are computed
/// row-locally), every result is bitwise identical to scoring the row
/// alone — independent of the client thread count, queue order, and
/// where the coalescing boundaries happen to fall. What batching
/// changes is only latency and throughput, never bits
/// (tests/serving_concurrency_test.cc locks this down).
///
/// Shutdown drains: requests enqueued before Shutdown are scored and
/// their futures fulfilled before the dispatcher exits.
class MicroBatcher {
 public:
  /// Batching knobs; each follows the repo's env-knob pattern
  /// (explicit option > SBRL_SERVE_* env > default).
  struct Options {
    /// Rows coalesced per forward at most; <= 0 resolves via
    /// SBRL_SERVE_MAX_BATCH, then defaults to 32.
    int64_t max_batch = 0;
    /// Hard upper bound (microseconds) on one linger for a fuller
    /// batch, under the self-clocking rule in the class comment; < 0
    /// resolves via SBRL_SERVE_MAX_WAIT_US, then defaults to 200. 0
    /// dispatches whatever is queued immediately.
    int64_t max_wait_us = -1;
    /// Stamp each response with the row-level OOD verdict (no-op when
    /// the model carries no detector).
    bool ood = false;
    /// Row OOD levels >= this threshold set the flagged bit.
    double ood_threshold = 0.5;
  };

  /// Starts the dispatcher over `model` (not owned; must outlive the
  /// batcher).
  MicroBatcher(const ServingModel* model, const Options& options);
  /// Starts the dispatcher with default options.
  explicit MicroBatcher(const ServingModel* model);

  /// Shutdown() if still running.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Scores one request row, blocking until its batch is dispatched.
  /// Thread-safe; CHECK-fails when called after Shutdown or with a
  /// row of the wrong dimension.
  ServingModel::RowScore ScoreRow(const std::vector<double>& x);

  /// Stops accepting requests, scores everything still queued, and
  /// joins the dispatcher. Idempotent.
  void Shutdown();

  /// Batched forwards dispatched so far.
  int64_t batches_dispatched() const { return batches_dispatched_.load(); }
  /// Request rows scored so far.
  int64_t rows_scored() const { return rows_scored_.load(); }
  /// The resolved maximum batch size.
  int64_t max_batch() const { return max_batch_; }
  /// The resolved linger budget in microseconds.
  int64_t max_wait_us() const { return max_wait_us_; }

 private:
  struct Pending {
    std::vector<double> x;
    std::promise<ServingModel::RowScore> promise;
  };

  void DispatchLoop();

  const ServingModel* model_;
  int64_t max_batch_;
  int64_t max_wait_us_;
  ServingModel::ScoreOptions score_options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::atomic<int64_t> batches_dispatched_{0};
  std::atomic<int64_t> rows_scored_{0};
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace sbrl

#endif  // SBRL_SERVE_MICRO_BATCHER_H_
