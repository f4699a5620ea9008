// stream: a ShardedTrainer TARNet fit (8192-row shards) over 10^6 rows
// drawn from SyntheticBlockReader at the host's lane count, then the
// streamed EstimateAte pass.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/sharded_trainer.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kRows = 1000000;
constexpr int64_t kShardRows = 8192;
constexpr int64_t kPasses = 2;
constexpr int kSetupRepeats = 5;

sbrl::ShardedTrainerConfig StreamConfig(uint64_t seed) {
  sbrl::ShardedTrainerConfig config;
  config.network.rep_layers = 2;
  config.network.rep_width = 32;
  config.network.head_layers = 2;
  config.network.head_width = 16;
  config.iterations = kPasses;
  config.seed = seed;
  config.sharding.shard_rows = kShardRows;
  return config;
}

// The streamed job's inputs: the generator model and the (lazy) reader
// over its unbiased 10^6-row environment.
struct StreamInputs {
  std::unique_ptr<sbrl::SyntheticModel> model;
  std::unique_ptr<sbrl::SyntheticBlockReader> reader;
};

StreamInputs MakeInputs(uint64_t seed) {
  StreamInputs in;
  in.model = std::make_unique<sbrl::SyntheticModel>(sbrl::SyntheticDims{},
                                                    seed);
  in.reader = std::make_unique<sbrl::SyntheticBlockReader>(
      in.model.get(), kRows, /*rho=*/1.0, /*env_seed=*/seed + 1, kShardRows);
  return in;
}

struct JobResult {
  double train_s = 0.0;
  double ate_s = 0.0;
  double ate = 0.0;
  std::vector<sbrl::Matrix> params;
};

// One streamed job: Train (kPasses passes) then EstimateAte, both over
// `reader`.
JobResult RunJob(uint64_t seed, int64_t dim, sbrl::DatasetBlockReader* reader,
                 Ledger* ledger) {
  JobResult job;
  sbrl::ShardedTrainer trainer(StreamConfig(seed), dim);
  const Clock::time_point start = Clock::now();
  const sbrl::Status trained = trainer.Train(*reader);
  job.train_s = SecondsSince(start);
  ledger->Check(trained.ok(), "Train: " + trained.ToString());
  const Clock::time_point ate_start = Clock::now();
  const sbrl::StatusOr<double> ate = trainer.EstimateAte(*reader);
  job.ate_s = SecondsSince(ate_start);
  ledger->Check(ate.ok() && std::isfinite(*ate),
                "EstimateAte failed or is not finite");
  job.ate = ate.ok() ? *ate : NAN;
  trainer.CollectParamValues(&job.params);
  return job;
}

bool SameBits(const JobResult& a, const JobResult& b) {
  if (!(a.ate == b.ate) || a.params.size() != b.params.size()) return false;
  for (size_t i = 0; i < a.params.size(); ++i) {
    const sbrl::Matrix& x = a.params[i];
    const sbrl::Matrix& y = b.params[i];
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (int64_t k = 0; k < x.size(); ++k) {
      if (!(x[k] == y[k])) return false;
    }
  }
  return true;
}

std::map<std::string, Metric> EndToEnd(const std::vector<JobResult>& jobs,
                                       double peak_rss_mb, double setup_s) {
  std::vector<double> rates;
  std::vector<double> pass_ms;
  for (const JobResult& job : jobs) {
    rates.push_back(static_cast<double>(kRows * (kPasses + 1)) /
                    (job.train_s + job.ate_s));
    pass_ms.push_back(1e3 * job.train_s / static_cast<double>(kPasses));
  }
  const int64_t n = static_cast<int64_t>(jobs.size());
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {setup_s, "s", kSetupRepeats};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MiB", 1};
  e2e["rows_per_s"] = {Median(rates), "1/s", n};
  e2e["latency_ms"] = {Median(pass_ms), "ms", n * kPasses};
  return e2e;
}

}  // namespace

void RunStream(const RunArgs& args, RunRecord* record) {
  Ledger& ledger = record->ledger;
  std::vector<double> setup;
  StreamInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    in = MakeInputs(args.seed);
    setup.push_back(SecondsSince(start));
  }
  const double setup_s = Median(setup);
  const double setup_peak = PeakRssMb();
  const int64_t dim = in.reader->dim();

  std::vector<JobResult> jobs;
  ResetPeakRss();
  RunRounds(args.seconds, 1, [&] {
    jobs.push_back(RunJob(args.seed, dim, in.reader.get(), &ledger));
  });
  const double peak = std::max(setup_peak, PeakRssMb());
  // The stream is a pure function of the seed: every job repeats the
  // first one bit for bit.
  for (const JobResult& job : jobs) {
    ledger.Check(SameBits(job, jobs.front()),
                 "streamed fit or ATE differs between rounds");
  }
  record->e2e = EndToEnd(jobs, peak, setup_s);
  const Metric& rate = record->e2e["rows_per_s"];
  record->named["stream_rows_per_s"] = rate;
  record->named["stream_ate"] = {jobs.front().ate, "1", 1};
  if (!args.trace) return;

  std::vector<JobResult> traced_jobs;
  std::vector<double> read_s, read_share, pass_s, ate_pass_s;
  int64_t blocks = 0, rows = 0;
  ResetPeakRss();
  RunRounds(args.seconds, 1, [&] {
    TimedBlockReader timed(in.reader.get());
    traced_jobs.push_back(RunJob(args.seed, dim, &timed, &ledger));
    const Clock::time_point end = Clock::now();
    const JobResult& job = traced_jobs.back();
    // Every pass but the last (EstimateAte's) is a training pass.
    const std::vector<TimedBlockReader::Pass>& passes = timed.passes();
    double train_read = 0.0;
    blocks = 0;
    rows = 0;
    for (size_t p = 0; p < passes.size(); ++p) {
      const bool last = p + 1 == passes.size();
      const double wall = SecondsBetween(
          passes[p].start, last ? end : passes[p + 1].start);
      (last ? ate_pass_s : pass_s).push_back(wall);
      if (!last) train_read += passes[p].read_seconds;
      blocks += passes[p].blocks;
      rows += passes[p].rows;
    }
    read_s.push_back(train_read);
    read_share.push_back(100.0 * train_read / job.train_s);
    ledger.Check(SameBits(job, jobs.front()),
                 "timing decorator changed the streamed fit or ATE");
  });
  const double traced_peak = std::max(setup_peak, PeakRssMb());
  const int64_t jobs_traced = static_cast<int64_t>(traced_jobs.size());
  SetLayer(record, "data.read_s", Median(read_s), jobs_traced);
  SetLayer(record, "data.read_share", Median(read_share), jobs_traced);
  SetLayer(record, "data.blocks", static_cast<double>(blocks), 1);
  SetLayer(record, "data.rows", static_cast<double>(rows), 1);
  SetLayer(record, "core.pass_s", Median(pass_s),
           static_cast<int64_t>(pass_s.size()));
  SetLayer(record, "core.ate_pass_s", Median(ate_pass_s),
           static_cast<int64_t>(ate_pass_s.size()));
  const sbrl::ShardedOptions resolved =
      sbrl::ResolveShardedOptions(StreamConfig(args.seed).sharding);
  SetLayer(record, "core.wave_mb",
           static_cast<double>(resolved.workers * resolved.shard_rows * dim *
                               8) /
               (1024.0 * 1024.0),
           1);
  record->meta["stream_workers"] = std::to_string(resolved.workers);
  RecordOverhead(record->e2e, EndToEnd(traced_jobs, traced_peak, setup_s),
                 record);
}

}  // namespace perfbench
