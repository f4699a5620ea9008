// Open-loop load generation for the serve_online workload: a Poisson
// arrival schedule that is a pure function of the seed, the summary of
// one rate rung (latency from the due time, generator lateness, tail
// by the ten-beyond rule, backlog test), and the rate ladder that
// stops at the first rung missing the latency limit.

#ifndef SBRL_PERFBENCH_SCHEDULE_H_
#define SBRL_PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Due times, in seconds from the rung start and ascending, of `count`
/// open-loop arrivals at `rate` per second: exponential gaps drawn by
/// inverse CDF from a SplitMix64 stream seeded with `seed`. A pure
/// function of (seed, rate, count); no global or library RNG state.
std::vector<double> PoissonDueTimes(uint64_t seed, double rate,
                                    int64_t count);

/// The offered rates in rows per second: 32, 64, 128, ..., 4096.
std::vector<double> RateLadder();

/// One rung of the ladder: raw per-request samples (in due order) and
/// the summary SummarizeRung derives from them.
struct RungResult {
  /// Offered rate (rows per second).
  double rate = 0.0;
  /// Requests scheduled on the rung.
  int64_t requests = 0;
  /// Requests that failed (an error or a wrong answer).
  int64_t failed = 0;
  /// Completion minus due time, per request, in milliseconds.
  std::vector<double> latency_ms;
  /// Send minus due time (how late the generator ran), per request.
  std::vector<double> late_ms;
  /// Seconds from the rung start to the last completion.
  double span_s = 0.0;

  // ---- Summary (filled by SummarizeRung). ----
  double p50_ms = 0.0;
  /// Percentile the tail is reported at (TailPercentile of the count).
  double tail_pct = 0.0;
  double tail_ms = 0.0;
  /// Generator lateness at the same percentile.
  double late_tail_ms = 0.0;
  /// Completed requests per second of span.
  double achieved_rps = 0.0;
  /// True when latency grew across the rung (see BacklogGrows).
  bool backlog = false;
  /// No failures, a reportable tail within the limit, no backlog.
  bool pass = false;
};

/// True when the median latency of the last quarter of `latency_ms`
/// (in due order) exceeds the first quarter's by more than half of
/// `limit_ms`: the queue grew over the rung instead of draining.
bool BacklogGrows(const std::vector<double>& latency_ms, double limit_ms);

/// Fills the summary fields of `rung` against `limit_ms`.
void SummarizeRung(double limit_ms, RungResult* rung);

/// Runs `run_rung` on each rate of `rates` in order, summarizes each
/// against `limit_ms`, and stops after the first rung that does not
/// pass (that rung is included in the result).
std::vector<RungResult> RunLadder(
    const std::vector<double>& rates, double limit_ms,
    const std::function<RungResult(double rate, size_t index)>& run_rung);

/// Index of the highest passing rung in a RunLadder result, or -1.
int HighestPassing(const std::vector<RungResult>& ladder);

}  // namespace perfbench

#endif  // SBRL_PERFBENCH_SCHEDULE_H_
