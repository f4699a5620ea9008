#include "schedule.h"

#include <cmath>
#include <vector>

#include "measure.h"

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> Slice(const std::vector<double>& v, size_t begin,
                          size_t end) {
  return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(begin),
                             v.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace

std::vector<double> PoissonDueTimes(uint64_t seed, double rate,
                                    int64_t count) {
  std::vector<double> due;
  due.reserve(static_cast<size_t>(count));
  uint64_t state = seed;
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    // 53 random bits -> u in [0, 1); -log(1 - u) / rate is Exp(rate).
    const double u =
        static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    due.push_back(t);
  }
  return due;
}

std::vector<double> RateLadder() {
  std::vector<double> rates;
  for (double r = 32.0; r <= 4096.0; r *= 2.0) rates.push_back(r);
  return rates;
}

bool BacklogGrows(const std::vector<double>& latency_ms, double limit_ms) {
  const size_t quarter = latency_ms.size() / 4;
  if (quarter == 0) return false;
  const double first = Median(Slice(latency_ms, 0, quarter));
  const double last =
      Median(Slice(latency_ms, latency_ms.size() - quarter, latency_ms.size()));
  return last > first + 0.5 * limit_ms;
}

void SummarizeRung(double limit_ms, RungResult* rung) {
  const int64_t n = static_cast<int64_t>(rung->latency_ms.size());
  rung->tail_pct = TailPercentile(n);
  if (n > 0) {
    rung->p50_ms = Median(rung->latency_ms);
    rung->tail_ms = Quantile(rung->latency_ms, rung->tail_pct / 100.0);
    rung->late_tail_ms = Quantile(rung->late_ms, rung->tail_pct / 100.0);
  }
  rung->achieved_rps =
      rung->span_s > 0.0 ? static_cast<double>(n) / rung->span_s : 0.0;
  rung->backlog = BacklogGrows(rung->latency_ms, limit_ms);
  rung->pass = rung->failed == 0 && n == rung->requests &&
               rung->tail_pct > 0.0 && rung->tail_ms <= limit_ms &&
               !rung->backlog;
}

std::vector<RungResult> RunLadder(
    const std::vector<double>& rates, double limit_ms,
    const std::function<RungResult(double rate, size_t index)>& run_rung) {
  std::vector<RungResult> ladder;
  for (size_t i = 0; i < rates.size(); ++i) {
    RungResult rung = run_rung(rates[i], i);
    SummarizeRung(limit_ms, &rung);
    ladder.push_back(std::move(rung));
    if (!ladder.back().pass) break;
  }
  return ladder;
}

int HighestPassing(const std::vector<RungResult>& ladder) {
  int best = -1;
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i].pass) best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
