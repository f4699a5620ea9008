// The four perfbench workloads. Each builds its inputs from the seed
// alone, measures for the given number of seconds, checks the
// program's outputs, and fills a RunRecord (see perfbench/README.md
// for what each workload stresses and why it was chosen).

#ifndef SBRL_PERFBENCH_WORKLOADS_H_
#define SBRL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "measure.h"

namespace perfbench {

/// Command-line arguments of one workload run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget of one measured phase.
  double seconds = 10.0;
  /// When true, a traced phase follows the untraced one and the run
  /// reports per-layer metrics plus the tracing overhead.
  bool trace = false;
  /// Directory the run may write scratch files into (exported models).
  std::string scratch_dir = ".";
};

/// The estimator configuration every fitting workload starts from: the
/// shape of the bench harness's base configuration (3 + 3 layers,
/// widths 32 / 16, SBRL-HAP weights as in the paper's Table IV optima)
/// with `iterations` training iterations.
sbrl::EstimatorConfig BaseEstimatorConfig(uint64_t seed, int64_t iterations);

/// Nine methods fitted one after another on Syn_8_8_8_2.
void RunFit(const RunArgs& args, RunRecord* record);

/// ShardedTrainer TARNet fit over 10^6 streamed rows, then the
/// streamed ATE pass.
void RunStream(const RunArgs& args, RunRecord* record);

/// Open-loop single-row requests through the MicroBatcher with row
/// gating, on a rate ladder.
void RunServeOnline(const RunArgs& args, RunRecord* record);

/// Direct 4096-row batch scoring: f64, f32, and the gated Score.
void RunServeBulk(const RunArgs& args, RunRecord* record);

/// Sets every per-layer metric of every workload to 0 so a run reports
/// the full per-layer set; each workload then overwrites its own.
void InitLayerMetrics(RunRecord* record);

/// Sets the value and sample count of per-layer metric `name`, keeping
/// the unit InitLayerMetrics gave it.
void SetLayer(RunRecord* record, const std::string& name, double value,
              int64_t samples);

/// Fills record->layers["trace.<metric>_overhead_pct"] for each e2e
/// metric: how much the traced phase's value differs from the untraced
/// one, in percent of the untraced value.
void RecordOverhead(const std::map<std::string, Metric>& untraced,
                    const std::map<std::string, Metric>& traced,
                    RunRecord* record);

}  // namespace perfbench

#endif  // SBRL_PERFBENCH_WORKLOADS_H_
