// fit: the nine methods (TARNet / CFR / DeR-CFR x vanilla / +SBRL /
// +SBRL-HAP) fitted one after another on Syn_8_8_8_2, trained on the
// rho = 2.5 environment and scored on the far-OOD rho = -3 one.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "tensor/linalg.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Bench default scale (n, widths) with a shortened iteration budget so
// that several rounds of all nine fits fit in one measured phase.
constexpr int64_t kTrainRows = 1000;
constexpr int64_t kValidRows = 300;
constexpr int64_t kTestRows = 500;
constexpr int64_t kIterations = 30;
constexpr int64_t kRepWidth = 32;
constexpr int64_t kHeadWidth = 16;
constexpr int kSetupRepeats = 3;

struct FitData {
  sbrl::CausalDataset train;
  sbrl::CausalDataset valid;
  sbrl::CausalDataset test;
};

FitData MakeFitData(uint64_t seed) {
  const sbrl::SyntheticModel model(sbrl::SyntheticDims{}, seed);
  const sbrl::CausalDataset pool =
      model.SampleEnvironment(kTrainRows + kValidRows, 2.5, seed + 1);
  sbrl::Rng split_rng(seed + 2);
  sbrl::TrainValid tv = sbrl::SplitTrainValid(
      pool,
      static_cast<double>(kTrainRows) /
          static_cast<double>(kTrainRows + kValidRows),
      split_rng);
  FitData data;
  data.train = std::move(tv.train);
  data.valid = std::move(tv.valid);
  data.test = model.SampleEnvironment(kTestRows, -3.0, seed + 3);
  return data;
}

int FamilyIndex(sbrl::FrameworkKind framework) {
  switch (framework) {
    case sbrl::FrameworkKind::kVanilla: return 0;
    case sbrl::FrameworkKind::kSbrl: return 1;
    default: return 2;
  }
}

const char* const kFamilyNames[3] = {"vanilla", "sbrl", "hap"};

// Per-phase seconds summed over one round's nine fits.
struct PhaseSums {
  double net_step = 0.0;
  double weight_step = 0.0;
  double rff_cos = 0.0;
  double health = 0.0;
  double loop_other = 0.0;
};

struct PhaseResult {
  std::vector<std::vector<double>> method_seconds;  // per method, per round
  int64_t train_rows = 0;                           // rows each fit trains on
  std::vector<double> family_sums[3];               // per round
  std::vector<double> pehe_ood;                     // per round
  std::vector<PhaseSums> phases;                    // per round
  double peak_rss_mb = 0.0;
};

PhaseResult MeasureFits(const FitData& data, uint64_t seed, double seconds,
                        Ledger* ledger) {
  PhaseResult out;
  out.train_rows = data.train.x.rows();
  ResetPeakRss();
  RunRounds(seconds, 1, [&] {
    double family[3] = {0.0, 0.0, 0.0};
    double pehe_sum = 0.0;
    int pehe_count = 0;
    PhaseSums phase;
    const std::vector<sbrl::MethodSpec> methods = sbrl::AllNineMethods();
    out.method_seconds.resize(methods.size());
    for (size_t m = 0; m < methods.size(); ++m) {
      const sbrl::MethodSpec& spec = methods[m];
      sbrl::StatusOr<sbrl::HteEstimator> estimator =
          sbrl::HteEstimator::Create(sbrl::WithMethod(
              BaseEstimatorConfig(seed, kIterations), spec));
      ledger->Check(estimator.ok(), spec.name() + ": Create failed");
      if (!estimator.ok()) continue;
      const Clock::time_point start = Clock::now();
      const sbrl::Status fitted = estimator->Fit(data.train, &data.valid);
      const double wall = SecondsSince(start);
      ledger->Check(fitted.ok(), spec.name() + ": Fit " + fitted.ToString());
      if (!fitted.ok()) continue;
      out.method_seconds[m].push_back(wall);
      family[FamilyIndex(spec.framework)] += wall;
      const sbrl::EvalResult eval =
          sbrl::EvaluateEstimator(*estimator, data.test);
      ledger->Check(std::isfinite(eval.pehe) && std::isfinite(eval.ate_error),
                    spec.name() + ": non-finite PEHE or ATE error");
      if (spec.framework == sbrl::FrameworkKind::kSbrlHap) {
        pehe_sum += eval.pehe;
        ++pehe_count;
      }
      const sbrl::TrainDiagnostics& diag = estimator->diagnostics();
      phase.net_step += diag.net_step_seconds;
      phase.weight_step += diag.weight_step_seconds;
      phase.rff_cos += diag.rff_cos_seconds;
      phase.health += diag.health_seconds;
      phase.loop_other += diag.train_seconds - diag.net_step_seconds -
                          diag.weight_step_seconds - diag.health_seconds -
                          diag.checkpoint_seconds;
    }
    for (int f = 0; f < 3; ++f) out.family_sums[f].push_back(family[f]);
    out.pehe_ood.push_back(pehe_count > 0 ? pehe_sum / pehe_count : NAN);
    out.phases.push_back(phase);
  });
  out.peak_rss_mb = PeakRssMb();
  return out;
}

std::map<std::string, Metric> EndToEnd(const PhaseResult& r, double setup_s,
                                       double setup_peak) {
  std::map<std::string, Metric> e2e;
  // Each method's median Fit wall time over the rounds, so that one
  // slow fit in a round moves neither metric. rows_per_s: rows fitted
  // per second over a round of the nine median fits. latency_ms: the
  // geometric mean of the nine medians. Each method weighs the same in
  // it, so the fast vanilla fits (network step) move it as much as the
  // slow HAP fits (weight step) that dominate rows_per_s.
  int64_t fits = 0;
  double median_sum = 0.0;
  double log_sum = 0.0;
  int methods = 0;
  for (const std::vector<double>& seconds : r.method_seconds) {
    if (seconds.empty()) continue;
    fits += static_cast<int64_t>(seconds.size());
    const double median = Median(seconds);
    median_sum += median;
    log_sum += std::log(median);
    ++methods;
  }
  const int64_t rounds = static_cast<int64_t>(r.pehe_ood.size());
  e2e["setup_s"] = {setup_s, "s", kSetupRepeats};
  e2e["peak_rss_mb"] = {std::max(setup_peak, r.peak_rss_mb), "MiB", 1};
  e2e["rows_per_s"] = {
      methods > 0 ? static_cast<double>(methods * r.train_rows) / median_sum
                  : 0.0,
      "1/s", rounds};
  e2e["latency_ms"] = {
      methods > 0 ? 1e3 * std::exp(log_sum / methods) : 0.0, "ms", fits};
  return e2e;
}

// Median over rounds of one phase field.
double MedianPhase(const std::vector<PhaseSums>& rounds,
                   double PhaseSums::*field) {
  std::vector<double> values;
  for (const PhaseSums& p : rounds) values.push_back(p.*field);
  return Median(values);
}

}  // namespace

sbrl::EstimatorConfig BaseEstimatorConfig(uint64_t seed, int64_t iterations) {
  sbrl::EstimatorConfig config;
  config.network.rep_layers = 3;
  config.network.rep_width = kRepWidth;
  config.network.head_layers = 3;
  config.network.head_width = kHeadWidth;
  config.train.iterations = iterations;
  config.train.lr = 1e-3;
  config.train.lr_decay_rate = 0.97;
  config.train.lr_decay_steps = 100;
  config.train.eval_every = 25;
  config.train.patience = 12;
  config.train.seed = seed;
  config.cfr.alpha_ipm = 1.0;
  config.sbrl.alpha_br = 1.0;
  config.sbrl.gamma1 = 10.0;
  config.sbrl.gamma2 = 1e-2;
  config.sbrl.gamma3 = 1e-2;
  config.sbrl.hsic_pair_budget = 24;
  config.sbrl.weight_update_every = 1;
  config.sbrl.lr_w = 0.1;
  return config;
}

void RunFit(const RunArgs& args, RunRecord* record) {
  std::vector<double> setup;
  FitData data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    data = MakeFitData(args.seed);
    setup.push_back(SecondsSince(start));
  }
  const double setup_s = Median(setup);
  const double setup_peak = PeakRssMb();

  Ledger& ledger = record->ledger;
  const PhaseResult run = MeasureFits(data, args.seed, args.seconds, &ledger);
  record->e2e = EndToEnd(run, setup_s, setup_peak);
  const int64_t rounds = static_cast<int64_t>(run.pehe_ood.size());
  for (int f = 0; f < 3; ++f) {
    if (run.family_sums[f].empty()) continue;
    record->named[std::string("fit_") + kFamilyNames[f] + "_s"] = {
        Median(run.family_sums[f]), "s", rounds};
  }
  // PEHE is a pure function of the seed: every round must repeat it
  // bit for bit.
  for (const double pehe : run.pehe_ood) {
    ledger.Check(std::isfinite(pehe) && pehe == run.pehe_ood.front(),
                 "pehe_ood differs between rounds");
  }
  if (!run.pehe_ood.empty()) {
    record->named["pehe_ood"] = {run.pehe_ood.front(), "1", rounds};
  }
  if (!args.trace) return;

  const PhaseResult traced =
      MeasureFits(data, args.seed, args.seconds, &ledger);
  for (const double pehe : traced.pehe_ood) {
    ledger.Check(!run.pehe_ood.empty() && pehe == run.pehe_ood.front(),
                 "pehe_ood differs between the untraced and traced phases");
  }
  const int64_t traced_rounds = static_cast<int64_t>(traced.phases.size());
  if (!traced.phases.empty()) {
    SetLayer(record, "nn.net_step_s",
             MedianPhase(traced.phases, &PhaseSums::net_step), traced_rounds);
    SetLayer(record, "core.weight_step_s",
             MedianPhase(traced.phases, &PhaseSums::weight_step), traced_rounds);
    SetLayer(record, "stats.rff_cos_s",
             MedianPhase(traced.phases, &PhaseSums::rff_cos), traced_rounds);
    SetLayer(record, "core.health_s",
             MedianPhase(traced.phases, &PhaseSums::health), traced_rounds);
    SetLayer(record, "core.loop_other_s",
             MedianPhase(traced.phases, &PhaseSums::loop_other), traced_rounds);
  }
  // Replays the first representation layer's training-shape Matmul:
  // (n_train x d) times (d x rep_width).
  const int64_t d = data.train.x.cols();
  sbrl::Matrix w(d, kRepWidth);
  for (int64_t i = 0; i < w.size(); ++i) {
    w[i] = 0.01 * static_cast<double>((i * 37) % 101 - 50);
  }
  std::vector<double> matmul_us;
  double sink = 0.0;
  RunRounds(0.25, 50, [&] {
    const Clock::time_point start = Clock::now();
    const sbrl::Matrix z = sbrl::Matmul(data.train.x, w);
    matmul_us.push_back(1e6 * SecondsSince(start));
    sink += z[0];
  });
  ledger.Check(std::isfinite(sink), "matmul replay produced non-finite output");
  SetLayer(record, "tensor.matmul_us", Median(matmul_us),
           static_cast<int64_t>(matmul_us.size()));
  SetLayer(record, "tensor.matmul_mflop",
           2.0 * static_cast<double>(data.train.x.rows() * d * kRepWidth) / 1e6,
           1);
  RecordOverhead(record->e2e, EndToEnd(traced, setup_s, setup_peak),
                 record);
}

}  // namespace perfbench
