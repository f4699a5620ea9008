// Micro-batcher determinism and lifecycle lockdown: concurrent client
// threads scoring through one shared MicroBatcher must get results
// BITWISE identical to scoring each row alone, no matter how many
// clients run or where the coalescing boundaries fall; shutdown must
// drain every queued request. Runs in the tsan suite, so the model is
// handcrafted (deterministic Rng weights) instead of trained.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "serve/serving_model.h"
#include "tensor/random.h"

namespace sbrl {
namespace serve {
namespace {

constexpr int64_t kDim = 4;
constexpr int64_t kRepWidth = 6;
constexpr int64_t kHeadWidth = 5;

// A small CFR-shaped model with BatchNorm in every hidden layer, so
// the threaded forwards exercise the full fused inference kernel.
ServingModelData MakeModelData() {
  Rng rng(7);
  ServingModelData data;
  data.meta.backbone = BackboneKind::kCfr;
  data.meta.framework = FrameworkKind::kVanilla;
  data.meta.method_name = "handcrafted";
  data.meta.input_dim = kDim;
  data.meta.binary_outcome = true;
  data.meta.network.rep_layers = 2;
  data.meta.network.rep_width = kRepWidth;
  data.meta.network.head_layers = 1;
  data.meta.network.head_width = kHeadWidth;
  data.meta.network.batchnorm = true;
  data.meta.network.activation = Activation::kElu;

  auto add_layer = [&](const std::string& prefix, int64_t index, int64_t in,
                       int64_t out) {
    const std::string dense = prefix + ".l" + std::to_string(index);
    const std::string bn = prefix + ".bn" + std::to_string(index);
    data.weights.push_back({dense + ".W", rng.Randn(in, out, 0.0, 0.5)});
    data.weights.push_back({dense + ".b", rng.Randn(1, out, 0.0, 0.1)});
    data.weights.push_back({bn + ".gamma", rng.Rand(1, out, 0.8, 1.2)});
    data.weights.push_back({bn + ".beta", rng.Randn(1, out, 0.0, 0.1)});
    data.state.push_back({bn + ".running_mean", rng.Randn(1, out, 0.0, 0.2)});
    data.state.push_back({bn + ".running_var", rng.Rand(1, out, 0.5, 1.5)});
  };
  add_layer("rep", 0, kDim, kRepWidth);
  add_layer("rep", 1, kRepWidth, kRepWidth);
  add_layer("heads.h0", 0, kRepWidth, kHeadWidth);
  add_layer("heads.h1", 0, kRepWidth, kHeadWidth);
  data.weights.push_back({"heads.h0.out.W", rng.Randn(kHeadWidth, 1)});
  data.weights.push_back({"heads.h0.out.b", rng.Randn(1, 1)});
  data.weights.push_back({"heads.h1.out.W", rng.Randn(kHeadWidth, 1)});
  data.weights.push_back({"heads.h1.out.b", rng.Randn(1, 1)});
  return data;
}

ServingModel MakeModel() {
  StatusOr<ServingModel> model = ServingModel::FromData(MakeModelData());
  SBRL_CHECK(model.ok()) << model.status().ToString();
  return std::move(model.value());
}

TEST(ServingConcurrencyTest, ResultsBitwiseIndependentOfThreadsAndBatching) {
  const ServingModel model = MakeModel();
  Rng rng(8);
  const Matrix queries = rng.Randn(24, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  for (const int64_t threads : {1, 2, 4}) {
    for (const int64_t max_batch : {1, 3, 8}) {
      for (const int64_t max_wait_us : {0, 1000}) {
        MicroBatcher::Options options;
        options.max_batch = max_batch;
        options.max_wait_us = max_wait_us;
        MicroBatcher batcher(&model, options);

        std::vector<ServingModel::RowScore> got(
            static_cast<size_t>(queries.rows()));
        std::vector<std::thread> clients;
        for (int64_t c = 0; c < threads; ++c) {
          clients.emplace_back([&, c] {
            // Client c scores every threads-th row.
            std::vector<double> row(kDim);
            for (int64_t i = c; i < queries.rows(); i += threads) {
              for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
              got[static_cast<size_t>(i)] = batcher.ScoreRow(row);
            }
          });
        }
        for (std::thread& client : clients) client.join();
        batcher.Shutdown();

        EXPECT_EQ(batcher.rows_scored(), queries.rows());
        EXPECT_GE(batcher.batches_dispatched(),
                  (queries.rows() + max_batch - 1) / max_batch);
        EXPECT_LE(batcher.batches_dispatched(), queries.rows());
        for (int64_t i = 0; i < queries.rows(); ++i) {
          const ServingModel::RowScore& want =
              reference[static_cast<size_t>(i)];
          const ServingModel::RowScore& have = got[static_cast<size_t>(i)];
          EXPECT_EQ(have.y0, want.y0)
              << "threads=" << threads << " max_batch=" << max_batch
              << " wait=" << max_wait_us << " row=" << i;
          EXPECT_EQ(have.y1, want.y1);
          EXPECT_EQ(have.ite, want.ite);
        }
      }
    }
  }
}

TEST(ServingConcurrencyTest, ShutdownDrainsQueuedRequests) {
  const ServingModel model = MakeModel();
  Rng rng(9);
  const Matrix queries = rng.Randn(3, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  // A linger budget far beyond the test's lifetime and a batch larger
  // than the request count. A first wave of two clients released
  // together must coalesce into one two-row dispatch (retried on a
  // fresh batcher until it does); the lone straggler that follows
  // cannot reach that dispatch's size, so the dispatcher lingers on it
  // and nothing more dispatches until Shutdown, which must flush it in
  // its drain. A wave of two cannot strand its own second row: after a
  // one-row dispatch the target is one.
  MicroBatcher::Options options;
  options.max_batch = 64;
  options.max_wait_us = 10'000'000;
  constexpr int64_t kWave = 2;

  std::unique_ptr<MicroBatcher> owner;
  std::vector<ServingModel::RowScore> got(
      static_cast<size_t>(queries.rows()));
  auto send = [&](int64_t i) {
    std::vector<double> row(kDim);
    for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
    got[static_cast<size_t>(i)] = owner->ScoreRow(row);
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ASSERT_TRUE(std::chrono::steady_clock::now() < give_up)
        << "the first wave never coalesced";
    // The wave spins before the batcher exists and is released right
    // after its dispatcher thread is started, so both rows usually
    // queue before the dispatcher first takes the lock.
    std::atomic<bool> go{false};
    std::vector<std::thread> wave;
    for (int64_t i = 0; i < kWave; ++i) {
      wave.emplace_back([&, i] {
        while (!go.load()) std::this_thread::yield();
        send(i);
      });
    }
    owner = std::make_unique<MicroBatcher>(&model, options);
    go.store(true);
    for (std::thread& client : wave) client.join();
    // The dispatcher counts a batch before its rows, after fulfilling
    // the promises: once every row is counted, so is every batch.
    while (owner->rows_scored() < kWave) std::this_thread::yield();
    if (owner->batches_dispatched() == 1) break;
  }

  std::atomic<bool> entered{false};
  std::thread straggler([&] {
    entered.store(true);
    send(kWave);
  });
  while (!entered.load()) std::this_thread::yield();
  // Give the straggler time to move from the flag into the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  MicroBatcher& batcher = *owner;
  // The straggler is still queued, so the drain has work to do.
  EXPECT_LT(batcher.rows_scored(), queries.rows());
  batcher.Shutdown();
  straggler.join();

  EXPECT_EQ(batcher.rows_scored(), queries.rows());
  for (int64_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].y0,
              reference[static_cast<size_t>(i)].y0);
    EXPECT_EQ(got[static_cast<size_t>(i)].y1,
              reference[static_cast<size_t>(i)].y1);
  }
}

TEST(ServingConcurrencyTest, LoneClientNeverLingers) {
  const ServingModel model = MakeModel();
  Rng rng(10);
  const Matrix queries = rng.Randn(20, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  // A one-second linger budget: one sequential client that paid it
  // would take 20 s. The linger rule dispatches a lone request at
  // once, one batch per request.
  MicroBatcher::Options options;
  options.max_wait_us = 1'000'000;
  MicroBatcher batcher(&model, options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> row(kDim);
  for (int64_t i = 0; i < queries.rows(); ++i) {
    for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
    const ServingModel::RowScore score = batcher.ScoreRow(row);
    EXPECT_EQ(score.y0, reference[static_cast<size_t>(i)].y0);
    EXPECT_EQ(score.y1, reference[static_cast<size_t>(i)].y1);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 0.5);
  // The dispatcher counts a batch after fulfilling its promises; the
  // join makes the last count visible.
  batcher.Shutdown();
  EXPECT_EQ(batcher.batches_dispatched(), queries.rows());
}

TEST(ServingConcurrencyTest, ClosedLoopClientsDoNotWaitOutTheBudget) {
  const ServingModel model = MakeModel();
  Rng rng(11);
  const Matrix queries = rng.Randn(16, kDim);
  const std::vector<ServingModel::RowScore> reference =
      model.ScoreRows(queries);

  // Three clients that each wait for their reply before resending: a
  // linger that ran to the budget on every coalesced dispatch would
  // take about kRequests budgets. The self-clocking rule dispatches as
  // soon as all live clients have resent, so a full budget is paid only
  // when a client leaves — at most once per client.
  constexpr int64_t kClients = 3;
  constexpr int64_t kRequests = 20;
  constexpr int64_t kBudgetUs = 200'000;
  MicroBatcher::Options options;
  options.max_wait_us = kBudgetUs;
  MicroBatcher batcher(&model, options);

  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      std::vector<double> row(kDim);
      for (int64_t r = 0; r < kRequests; ++r) {
        const int64_t i = (c * 5 + r) % queries.rows();
        for (int64_t d = 0; d < kDim; ++d) row[d] = queries(i, d);
        const ServingModel::RowScore score = batcher.ScoreRow(row);
        const ServingModel::RowScore& want = reference[static_cast<size_t>(i)];
        EXPECT_EQ(score.y0, want.y0) << "client " << c << " request " << r;
        EXPECT_EQ(score.y1, want.y1);
        EXPECT_EQ(score.ite, want.ite);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true);
  for (std::thread& client : clients) client.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  batcher.Shutdown();
  EXPECT_EQ(batcher.rows_scored(), kClients * kRequests);
  // One budget per departing client plus slack for a loaded host; the
  // budget-bound rule needs about kRequests budgets.
  EXPECT_LT(seconds, (kClients + 3) * kBudgetUs * 1e-6);
}

TEST(ServingConcurrencyTest, EnvKnobsResolveWhenOptionsAreDefault) {
  const ServingModel model = MakeModel();
  setenv("SBRL_SERVE_MAX_BATCH", "5", /*overwrite=*/1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "7", /*overwrite=*/1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 5);
    EXPECT_EQ(batcher.max_wait_us(), 7);
  }
  {
    // Explicit options beat the environment.
    MicroBatcher::Options options;
    options.max_batch = 2;
    options.max_wait_us = 0;
    MicroBatcher batcher(&model, options);
    EXPECT_EQ(batcher.max_batch(), 2);
    EXPECT_EQ(batcher.max_wait_us(), 0);
  }
  unsetenv("SBRL_SERVE_MAX_BATCH");
  unsetenv("SBRL_SERVE_MAX_WAIT_US");
  {
    // Without options or env, the defaults apply.
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
}

TEST(ServingConcurrencyTest, MalformedEnvKnobsFallBackToDefaults) {
  const ServingModel model = MakeModel();
  // Garbage and overflow must resolve to the defaults — old strtoll
  // parsing turned the overflow case into LLONG_MAX.
  setenv("SBRL_SERVE_MAX_BATCH", "many", /*overwrite=*/1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "9223372036854775808", 1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
  // Below-minimum values are rejected the same way.
  setenv("SBRL_SERVE_MAX_BATCH", "0", 1);
  setenv("SBRL_SERVE_MAX_WAIT_US", "-5", 1);
  {
    MicroBatcher batcher(&model);
    EXPECT_EQ(batcher.max_batch(), 32);
    EXPECT_EQ(batcher.max_wait_us(), 200);
  }
  unsetenv("SBRL_SERVE_MAX_BATCH");
  unsetenv("SBRL_SERVE_MAX_WAIT_US");
}

TEST(ServingConcurrencyTest, ShutdownIsIdempotent) {
  const ServingModel model = MakeModel();
  MicroBatcher batcher(&model);
  std::vector<double> row(kDim, 0.25);
  const ServingModel::RowScore score = batcher.ScoreRow(row);
  EXPECT_EQ(score.ite, score.y1 - score.y0);
  batcher.Shutdown();
  batcher.Shutdown();  // second call is a no-op, destructor a third
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
