// Self-tests of the benchmark's own rules: the tail-percentile rule,
// the rate ladder's stop rule, the determinism of the arrival
// schedule, and that the reader timing decorator leaves a streamed fit
// and its ATE bitwise unchanged.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/sharded_trainer.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "layers.h"
#include "measure.h"
#include "schedule.h"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.95), 95.0);
}

// A rung whose requests all take `ms`, optionally with failures or a
// latency that climbs over the rung.
RungResult FakeRung(double rate, double ms, int64_t failed = 0,
                    double climb_ms = 0.0) {
  RungResult rung;
  rung.rate = rate;
  rung.requests = 200;
  rung.failed = failed;
  for (int64_t i = 0; i < rung.requests; ++i) {
    rung.latency_ms.push_back(ms + climb_ms * static_cast<double>(i) /
                                       static_cast<double>(rung.requests));
    rung.late_ms.push_back(0.1);
  }
  rung.span_s = static_cast<double>(rung.requests) / rate;
  return rung;
}

TEST(RateLadder, DoublesFrom32To4096) {
  const std::vector<double> rates = RateLadder();
  ASSERT_EQ(rates.size(), 8u);
  EXPECT_EQ(rates.front(), 32.0);
  EXPECT_EQ(rates.back(), 4096.0);
}

TEST(RateLadder, StopsAtTheFirstRungThatMissesTheLimit) {
  std::vector<double> asked;
  const std::vector<RungResult> ladder = RunLadder(
      RateLadder(), 100.0, [&](double rate, size_t) {
        asked.push_back(rate);
        // 32 and 64 pass, 128 misses the limit, 256 would pass again.
        return FakeRung(rate, rate == 128.0 ? 150.0 : 10.0);
      });
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(asked, (std::vector<double>{32.0, 64.0, 128.0}));
  EXPECT_TRUE(ladder[0].pass);
  EXPECT_TRUE(ladder[1].pass);
  EXPECT_FALSE(ladder[2].pass);
  EXPECT_EQ(HighestPassing(ladder), 1);
  EXPECT_EQ(ladder[0].tail_pct, 95.0);
}

TEST(RateLadder, FailuresAndGrowingBacklogMissTheLimit) {
  const std::vector<RungResult> failing = RunLadder(
      RateLadder(), 100.0, [](double rate, size_t index) {
        return FakeRung(rate, 10.0, /*failed=*/index == 1 ? 1 : 0);
      });
  ASSERT_EQ(failing.size(), 2u);
  EXPECT_EQ(HighestPassing(failing), 0);

  // Latency climbing by 70 ms over the rung: the tail stays under the
  // limit but the last quarter is > 50 ms slower than the first.
  const std::vector<RungResult> backlog = RunLadder(
      RateLadder(), 100.0, [](double rate, size_t) {
        return FakeRung(rate, 10.0, 0, rate == 32.0 ? 0.0 : 80.0);
      });
  ASSERT_EQ(backlog.size(), 2u);
  EXPECT_TRUE(backlog[1].backlog);
  EXPECT_FALSE(backlog[1].pass);
  EXPECT_EQ(HighestPassing(backlog), 0);
}

TEST(PoissonDueTimes, IsAPureFunctionOfTheSeed) {
  const std::vector<double> a = PoissonDueTimes(42, 64.0, 5000);
  const std::vector<double> b = PoissonDueTimes(42, 64.0, 5000);
  const std::vector<double> c = PoissonDueTimes(43, 64.0, 5000);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  // Mean gap 1/rate: 5000 arrivals at 64/s span about 78 s.
  EXPECT_NEAR(a.back(), 5000.0 / 64.0, 5000.0 / 64.0 * 0.05);
  // A shorter schedule is a prefix of a longer one.
  const std::vector<double> prefix = PoissonDueTimes(42, 64.0, 100);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));
}

TEST(TimedBlockReader, LeavesTheStreamedFitAndAteBitwiseUnchanged) {
  const sbrl::SyntheticModel model(sbrl::SyntheticDims{}, 5);
  sbrl::ShardedTrainerConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = 16;
  config.network.head_layers = 2;
  config.network.head_width = 8;
  config.iterations = 2;
  config.sharding.shard_rows = 1024;
  const int64_t rows = 5000;

  sbrl::SyntheticBlockReader bare(&model, rows, 1.0, 11, 1024);
  sbrl::ShardedTrainer plain(config, model.dims().total());
  ASSERT_TRUE(plain.Train(bare).ok());
  const sbrl::StatusOr<double> plain_ate = plain.EstimateAte(bare);
  ASSERT_TRUE(plain_ate.ok());

  sbrl::SyntheticBlockReader inner(&model, rows, 1.0, 11, 1024);
  TimedBlockReader timed(&inner);
  sbrl::ShardedTrainer traced(config, model.dims().total());
  ASSERT_TRUE(traced.Train(timed).ok());
  const sbrl::StatusOr<double> traced_ate = traced.EstimateAte(timed);
  ASSERT_TRUE(traced_ate.ok());

  EXPECT_EQ(*plain_ate, *traced_ate);
  std::vector<sbrl::Matrix> a, b;
  plain.CollectParamValues(&a);
  traced.CollectParamValues(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (int64_t k = 0; k < a[i].size(); ++k) {
      ASSERT_EQ(a[i][k], b[i][k]) << "parameter " << i << " element " << k;
    }
  }
  // Two training passes and the ATE pass, each over every row.
  int64_t seen = 0;
  for (const TimedBlockReader::Pass& pass : timed.passes()) {
    EXPECT_EQ(pass.rows, rows);
    EXPECT_GE(pass.read_seconds, 0.0);
    seen += pass.rows;
  }
  EXPECT_EQ(timed.passes().size(), 3u);
  EXPECT_EQ(seen, 3 * rows);
}

}  // namespace
}  // namespace perfbench
