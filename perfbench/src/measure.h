// Measurement helpers shared by the perfbench workloads: the clock,
// order statistics with the tail-percentile rule, peak resident
// memory, the per-run failure ledger, and the JSON result record the
// runner script (perfbench/run.py) reads.

#ifndef SBRL_PERFBENCH_MEASURE_H_
#define SBRL_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to` (negative when `to` is earlier).
double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Seconds since `start`.
double SecondsSince(Clock::time_point start);

/// Median of `values` (mean of the two middle values for even counts).
/// Requires a non-empty vector.
double Median(std::vector<double> values);

/// Quantile `q` in [0, 1] of `values`, linearly interpolated between
/// order statistics (the "type 7" rule of R and numpy). Requires a
/// non-empty vector.
double Quantile(std::vector<double> values, double q);

/// The highest percentile of the ladder {50, 90, 95, 99, 99.9} that
/// has at least ten of `samples` beyond it, i.e. the largest p with
/// samples * (1 - p / 100) >= 10. Returns 0 when even the median has
/// fewer than ten samples beyond it (samples < 20): such a run reports
/// no tail.
double TailPercentile(int64_t samples);

/// Peak resident set of this process in MiB since the last
/// ResetPeakRss (VmHWM), or over its lifetime when the watermark
/// cannot be read.
double PeakRssMb();

/// Resets the kernel's peak-RSS watermark to the current resident set
/// so the next PeakRssMb measures one phase. Returns false when the
/// proc interface is unavailable (the watermark then stays lifetime).
bool ResetPeakRss();

/// Runs `round` repeatedly until at least `seconds` have elapsed (the
/// last round may end past the budget), and at least `min_rounds`
/// times.
void RunRounds(double seconds, int min_rounds,
               const std::function<void()>& round);

/// Attempts and failures of one run. Every correctness check of a
/// workload goes through Check, so `failed` counts the checks that
/// did not hold against everything that was tried.
class Ledger {
 public:
  /// Counts one attempt; a false `ok` also counts a failure and keeps
  /// `what` (the first few) for the report.
  void Check(bool ok, const std::string& what);

  /// Counts `attempted` attempts of which `failed` failed, as that many
  /// Check calls would.
  void Count(int64_t attempted, int64_t failed, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// One reported number: value, unit, and how many samples it
/// summarizes (1 for a single measurement or an exact count).
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
};

/// Everything one workload run reports. Groups:
///  - e2e: the end-to-end metrics every workload prints (BENCHMARK.json
///    `end_to_end`), measured with tracing off;
///  - named: the workload's own readings under the names of its
///    headline metrics (fit_hap_s, serve_p50_ms, ...);
///  - layers: per-layer metrics of the traced run; every workload
///    reports the full set, with 0 for layers it does not exercise;
///  - meta: host and run metadata (strings).
struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  Ledger ledger;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> named;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> meta;
};

/// Writes `record` as one JSON object on one line.
void WriteJson(const RunRecord& record, std::ostream& out);

}  // namespace perfbench

#endif  // SBRL_PERFBENCH_MEASURE_H_
