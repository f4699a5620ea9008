#include "serve/micro_batcher.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/env.h"

namespace sbrl {
namespace serve {

namespace {

// Knob resolution: explicit option > SBRL_SERVE_* env > default, with
// the shared ParseEnvInt64 rejection semantics for the env leg.
int64_t ResolveKnob(int64_t option, const char* env_name, int64_t min_value,
                    int64_t fallback) {
  if (option >= min_value) return option;
  return ParseEnvInt64(env_name, min_value, fallback);
}

}  // namespace

MicroBatcher::MicroBatcher(const ServingModel* model, const Options& options)
    : model_(model),
      max_batch_(ResolveKnob(options.max_batch, "SBRL_SERVE_MAX_BATCH",
                             /*min_value=*/1, /*fallback=*/32)),
      max_wait_us_(ResolveKnob(options.max_wait_us, "SBRL_SERVE_MAX_WAIT_US",
                               /*min_value=*/0, /*fallback=*/200)) {
  SBRL_CHECK(model_ != nullptr);
  score_options_.ood = options.ood;
  score_options_.ood_threshold = options.ood_threshold;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

MicroBatcher::MicroBatcher(const ServingModel* model)
    : MicroBatcher(model, Options()) {}

MicroBatcher::~MicroBatcher() { Shutdown(); }

ServingModel::RowScore MicroBatcher::ScoreRow(const std::vector<double>& x) {
  SBRL_CHECK_EQ(static_cast<int64_t>(x.size()), model_->input_dim());
  std::future<ServingModel::RowScore> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SBRL_CHECK(!stop_) << "ScoreRow after Shutdown";
    queue_.emplace_back();
    queue_.back().x = x;
    future = queue_.back().promise.get_future();
  }
  cv_.notify_one();
  return future.get();
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !dispatcher_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void MicroBatcher::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  int64_t last_take = 1;
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ with nothing left to drain
    // Self-clocking linger: wait only until the queue holds as many
    // rows as the previous dispatch took, since the clients it answered
    // are the ones likely to resend. A lone client (target 1) never
    // waits; c closed-loop clients dispatch as soon as all c have
    // resent. Never once shutdown began and never past the budget.
    const int64_t target = std::min(max_batch_, last_take);
    const auto filled = [&] {
      return stop_ || static_cast<int64_t>(queue_.size()) >= target;
    };
    if (max_wait_us_ > 0 && !filled()) {
      cv_.wait_until(lock,
                     std::chrono::steady_clock::now() +
                         std::chrono::microseconds(max_wait_us_),
                     filled);
    }
    const int64_t take = std::min<int64_t>(
        max_batch_, static_cast<int64_t>(queue_.size()));
    std::vector<Pending> batch;
    batch.reserve(static_cast<size_t>(take));
    for (int64_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    last_take = take;
    lock.unlock();

    Matrix x(take, model_->input_dim());
    for (int64_t r = 0; r < take; ++r) {
      for (int64_t c = 0; c < model_->input_dim(); ++c) {
        x(r, c) = batch[static_cast<size_t>(r)].x[static_cast<size_t>(c)];
      }
    }
    std::vector<ServingModel::RowScore> scores =
        model_->ScoreRows(x, score_options_);
    for (int64_t r = 0; r < take; ++r) {
      batch[static_cast<size_t>(r)].promise.set_value(
          scores[static_cast<size_t>(r)]);
    }
    batches_dispatched_.fetch_add(1);
    rows_scored_.fetch_add(take);

    lock.lock();
  }
}

}  // namespace serve
}  // namespace sbrl
