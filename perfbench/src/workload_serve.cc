// serve_online and serve_bulk: CFR+SBRL-HAP trained on the rho = 2.5
// environment, exported with its OOD detector, reloaded, and scored on
// far-OOD (rho = -2.5) rows, one row per request through the
// MicroBatcher (online) or 4096 rows per direct call (bulk).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/ood_detector.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "layers.h"
#include "schedule.h"
#include "serve/micro_batcher.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sbrl::serve::ServingModel;

constexpr int64_t kTrainRows = 1000;
constexpr int64_t kValidRows = 300;
constexpr int64_t kIterations = 100;
constexpr int64_t kOnlineQueryRows = 500;
constexpr int64_t kBulkRows = 4096;
constexpr int kSetupRepeats = 3;
// Serving latency limit on the tail percentile of a rung.
constexpr double kLimitMs = 100.0;
// Fewest requests on a rung: enough for a p90 with ten samples beyond.
constexpr int64_t kMinRungRequests = 100;
// The f32 tier's error budget against f64 (tests/precision_test.cc).
constexpr double kF32Budget = 5e-3;

/// Pins SBRL_PRECISION while alive, restoring the previous state: the
/// serving tier is resolved once at Load.
class ScopedPrecisionEnv {
 public:
  explicit ScopedPrecisionEnv(const char* value) {
    const char* old = std::getenv("SBRL_PRECISION");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("SBRL_PRECISION", value, 1);
  }
  ~ScopedPrecisionEnv() {
    if (had_old_) {
      ::setenv("SBRL_PRECISION", old_.c_str(), 1);
    } else {
      ::unsetenv("SBRL_PRECISION");
    }
  }
  ScopedPrecisionEnv(const ScopedPrecisionEnv&) = delete;
  ScopedPrecisionEnv& operator=(const ScopedPrecisionEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

struct Served {
  std::optional<ServingModel> model;    // f64 tier
  std::optional<ServingModel> model32;  // f32 tier (bulk only)
  sbrl::Matrix queries;                 // far-OOD request rows
  double load_s = 0.0;
};

// Generates data, trains, exports, and loads: everything a serving
// process does before its first request.
Served SetUp(const RunArgs& args, int64_t query_rows, bool with_f32,
             Ledger* ledger) {
  Served s;
  const sbrl::SyntheticModel synthetic(sbrl::SyntheticDims{}, args.seed);
  const sbrl::CausalDataset train =
      synthetic.SampleEnvironment(kTrainRows, 2.5, args.seed + 1);
  const sbrl::CausalDataset valid =
      synthetic.SampleEnvironment(kValidRows, 2.5, args.seed + 2);
  s.queries = synthetic.SampleEnvironment(query_rows, -2.5, args.seed + 3).x;
  const sbrl::MethodSpec spec{sbrl::BackboneKind::kCfr,
                              sbrl::FrameworkKind::kSbrlHap};
  sbrl::StatusOr<sbrl::HteEstimator> estimator = sbrl::HteEstimator::Create(
      sbrl::WithMethod(BaseEstimatorConfig(args.seed + 4, kIterations), spec));
  ledger->Check(estimator.ok(), "Create CFR+SBRL-HAP failed");
  if (!estimator.ok()) return s;
  const sbrl::Status fitted = estimator->Fit(train, &valid);
  ledger->Check(fitted.ok(), "Fit: " + fitted.ToString());
  sbrl::StatusOr<sbrl::OodLevelDetector> detector =
      sbrl::OodLevelDetector::Fit(train.x);
  ledger->Check(detector.ok(), "OodLevelDetector::Fit failed");
  if (!fitted.ok() || !detector.ok()) return s;
  const std::string path = args.scratch_dir + "/model_" +
                           std::to_string(::getpid()) + ".sbrlmodl";
  const sbrl::Status exported =
      sbrl::serve::ExportServingModel(*estimator, &*detector, path, with_f32);
  ledger->Check(exported.ok(), "Export: " + exported.ToString());
  if (!exported.ok()) return s;
  {
    ScopedPrecisionEnv pin("f64");
    const Clock::time_point start = Clock::now();
    sbrl::StatusOr<ServingModel> loaded = ServingModel::Load(path);
    s.load_s = SecondsSince(start);
    ledger->Check(loaded.ok(), "Load f64 failed");
    if (loaded.ok()) s.model.emplace(std::move(*loaded));
  }
  if (with_f32) {
    ScopedPrecisionEnv pin("f32");
    sbrl::StatusOr<ServingModel> loaded = ServingModel::Load(path);
    ledger->Check(loaded.ok() && loaded->precision() == sbrl::Precision::kF32,
                  "Load f32 failed");
    if (loaded.ok()) s.model32.emplace(std::move(*loaded));
  }
  std::remove(path.c_str());
  return s;
}

// Runs SetUp kSetupRepeats times; returns the last set-up and fills the
// median set-up and load seconds.
Served SetUpRepeated(const RunArgs& args, int64_t query_rows, bool with_f32,
                     Ledger* ledger, double* setup_s, double* load_s) {
  std::vector<double> setup, load;
  Served s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    s = SetUp(args, query_rows, with_f32, ledger);
    setup.push_back(SecondsSince(start));
    load.push_back(s.load_s);
  }
  *setup_s = Median(setup);
  *load_s = Median(load);
  return s;
}

std::vector<double> RowOf(const sbrl::Matrix& m, int64_t r) {
  std::vector<double> row(static_cast<size_t>(m.cols()));
  for (int64_t j = 0; j < m.cols(); ++j) row[static_cast<size_t>(j)] = m(r, j);
  return row;
}

bool SameScore(const ServingModel::RowScore& a,
               const ServingModel::RowScore& b) {
  return a.y0 == b.y0 && a.y1 == b.y1 && a.ite == b.ite &&
         a.ood_level == b.ood_level && a.ood_flagged == b.ood_flagged;
}

int SenderThreads() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, nproc - 1);
}

// Requests a rung sends: at least kMinRungRequests, else the rung's
// rate for a sixth of the phase budget.
int64_t RungRequests(double rate, double seconds) {
  return std::max<int64_t>(kMinRungRequests,
                           static_cast<int64_t>(rate * seconds / 6.0));
}

// The request side of the online workload: prebuilt request rows, their
// direct-scoring answers, and the batcher under test.
struct Client {
  sbrl::serve::MicroBatcher* batcher;
  std::vector<std::vector<double>> rows;
  const std::vector<ServingModel::RowScore>* reference;
  Ledger* ledger;

  // Sends request `k` (row k mod rows) and checks its answer bitwise.
  bool Send(int64_t k) const {
    const size_t q = static_cast<size_t>(k % static_cast<int64_t>(rows.size()));
    return SameScore(batcher->ScoreRow(rows[q]), (*reference)[q]);
  }
};

// Open loop: request k is due at t0 + due[k] whatever happened to
// earlier ones; SenderThreads() senders take requests in due order.
// Latency counts from the due time, so a late generator shows up in it.
RungResult RunRung(const Client& client, double rate,
                   const std::vector<double>& due) {
  RungResult rung;
  rung.rate = rate;
  rung.requests = static_cast<int64_t>(due.size());
  const size_t n = due.size();
  rung.latency_ms.assign(n, 0.0);
  rung.late_ms.assign(n, 0.0);
  std::vector<char> wrong(n, 0);
  std::vector<Clock::time_point> done(n);
  std::atomic<int64_t> next{0};
  // A short lead so every sender is waiting before the first due time.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> senders;
  for (int t = 0; t < SenderThreads(); ++t) {
    senders.emplace_back([&] {
      for (int64_t k = next++; k < rung.requests; k = next++) {
        const size_t i = static_cast<size_t>(k);
        const Clock::time_point due_at =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(due_at);
        const Clock::time_point sent = Clock::now();
        wrong[i] = client.Send(k) ? 0 : 1;
        done[i] = Clock::now();
        rung.latency_ms[i] = 1e3 * SecondsBetween(due_at, done[i]);
        rung.late_ms[i] = 1e3 * SecondsBetween(due_at, sent);
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  for (const char w : wrong) rung.failed += w;
  client.ledger->Count(rung.requests, rung.failed,
                       "online response differs from direct ScoreRows");
  rung.span_s = SecondsBetween(t0, *std::max_element(done.begin(), done.end()));
  return rung;
}

// Saturation: every sender sends back to back for `window` seconds (an
// open loop whose rate has gone to infinity). Appends to `rates`, for
// each of kSaturationSlices equal slices of the window, the requests
// completed per second in the slice.
void Saturate(const Client& client, double window,
              std::vector<double>* rates) {
  constexpr int kSaturationSlices = 3;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> wrong{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<double>> done(static_cast<size_t>(SenderThreads()));
  std::vector<std::thread> senders;
  for (size_t t = 0; t < done.size(); ++t) {
    senders.emplace_back([&, t] {
      while (SecondsSince(start) < window) {
        if (!client.Send(next++)) ++wrong;
        done[t].push_back(SecondsSince(start));
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  client.ledger->Count(next.load(), wrong.load(),
                       "saturated response differs from direct ScoreRows");
  // Slices of the whole wall time, up to the last completion.
  const double slice = SecondsSince(start) / kSaturationSlices;
  std::vector<double> per_slice(kSaturationSlices, 0.0);
  for (const std::vector<double>& times : done) {
    for (const double t : times) {
      const int i = static_cast<int>(t / slice);
      if (i < kSaturationSlices) per_slice[static_cast<size_t>(i)] += 1.0;
    }
  }
  for (const double count : per_slice) rates->push_back(count / slice);
}

// An idle server: one client sends each request when the previous one
// has returned, for `window` seconds. Appends the latencies in ms.
void Idle(const Client& client, double window,
          std::vector<double>* latency_ms) {
  int64_t sent_count = 0, wrong = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < window) {
    const Clock::time_point sent = Clock::now();
    if (!client.Send(static_cast<int64_t>(latency_ms->size()))) ++wrong;
    latency_ms->push_back(1e3 * SecondsSince(sent));
    ++sent_count;
  }
  client.ledger->Count(sent_count, wrong,
                       "idle response differs from direct ScoreRows");
}

struct Online {
  std::vector<RungResult> rungs;
  double saturation_rps = 0.0;
  std::vector<double> idle_ms;
  int64_t rows_scored = 0;
  int64_t batches = 0;
};

// The idle server, the rate ladder, and saturation, through one fresh
// MicroBatcher with row gating. On a shared host, contention drifts
// over tens of seconds, so the idle server and saturation are each
// measured in kWindows windows interleaved over the whole run, and
// their medians are taken over all windows: idle, ladder, then
// kWindows - 1 times (saturate, idle), then saturate.
Online RunOnline(const Served& s, uint64_t seed, double seconds,
                 const std::vector<ServingModel::RowScore>& reference,
                 Ledger* ledger) {
  constexpr int kWindows = 5;
  sbrl::serve::MicroBatcher::Options options;
  options.ood = true;
  sbrl::serve::MicroBatcher batcher(&*s.model, options);
  Client client{&batcher, {}, &reference, ledger};
  for (int64_t q = 0; q < s.queries.rows(); ++q) {
    client.rows.push_back(RowOf(s.queries, q));
  }
  // Budget: 40% of `seconds` idle, half saturated; the ladder takes
  // about half of `seconds` on top.
  const double idle_window = 0.4 * seconds / kWindows;
  const double saturate_window = 0.5 * seconds / kWindows;
  Online online;
  std::vector<double> saturation;
  Idle(client, idle_window, &online.idle_ms);
  online.rungs = RunLadder(
      RateLadder(), kLimitMs, [&](double rate, size_t index) {
        return RunRung(client, rate,
                       PoissonDueTimes(seed * 1000003ULL + index, rate,
                                       RungRequests(rate, seconds)));
      });
  for (int w = 1; w < kWindows; ++w) {
    Saturate(client, saturate_window, &saturation);
    Idle(client, idle_window, &online.idle_ms);
  }
  Saturate(client, saturate_window, &saturation);
  online.saturation_rps = Median(saturation);
  batcher.Shutdown();
  online.rows_scored = batcher.rows_scored();
  online.batches = batcher.batches_dispatched();
  return online;
}

std::map<std::string, Metric> OnlineEndToEnd(const Online& online,
                                             double setup_s, double peak) {
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {setup_s, "s", kSetupRepeats};
  e2e["peak_rss_mb"] = {peak, "MiB", 1};
  e2e["rows_per_s"] = {online.saturation_rps, "1/s", 1};
  e2e["latency_ms"] = {Median(online.idle_ms), "ms",
                       static_cast<int64_t>(online.idle_ms.size())};
  return e2e;
}

std::string RateName(double rate) {
  return std::to_string(static_cast<int64_t>(rate));
}

}  // namespace

void RunServeOnline(const RunArgs& args, RunRecord* record) {
  Ledger& ledger = record->ledger;
  double setup_s = 0.0, load_s = 0.0;
  const Served s = SetUpRepeated(args, kOnlineQueryRows, /*with_f32=*/false,
                                 &ledger, &setup_s, &load_s);
  if (!s.model.has_value()) return;
  const double setup_peak = PeakRssMb();
  const std::vector<ServingModel::RowScore> reference =
      s.model->ScoreRows(s.queries);

  ResetPeakRss();
  const Online online =
      RunOnline(s, args.seed, args.seconds, reference, &ledger);
  record->e2e = OnlineEndToEnd(online, setup_s,
                               std::max(setup_peak, PeakRssMb()));
  const std::vector<RungResult>& ladder = online.rungs;
  const RungResult& base = ladder.front();
  const int best = HighestPassing(ladder);
  record->named["serve_p50_ms"] = {base.p50_ms, "ms", base.requests};
  record->named["serve_tail_ms"] = {base.tail_ms, "ms", base.requests};
  record->named["serve_tail_pct"] = {base.tail_pct, "%", base.requests};
  record->named["serve_max_rps"] = {
      best >= 0 ? ladder[static_cast<size_t>(best)].rate : 0.0, "1/s",
      static_cast<int64_t>(ladder.size())};
  record->named["serve_saturation_rps"] = record->e2e["rows_per_s"];
  for (const RungResult& rung : ladder) {
    const std::string r = RateName(rung.rate);
    record->named["rung" + r + "_tail_ms"] = {rung.tail_ms, "ms",
                                              rung.requests};
    record->named["rung" + r + "_late_tail_ms"] = {rung.late_tail_ms, "ms",
                                                   rung.requests};
    record->named["rung" + r + "_pass"] = {rung.pass ? 1.0 : 0.0, "bool", 1};
  }
  record->meta["serve_senders"] = std::to_string(SenderThreads());
  if (!args.trace) return;

  ResetPeakRss();
  const Online traced =
      RunOnline(s, args.seed, args.seconds, reference, &ledger);
  const double traced_peak = std::max(setup_peak, PeakRssMb());
  // Replays every row the traced base rung (32 rows/s, where serve_p50_ms
  // and serve_tail_ms are read) sent through the two halves of a
  // request's service: the row OOD gate and the ungated forward.
  const RungResult& traced_base = traced.rungs.front();
  const int64_t used_rows = std::min(traced_base.requests, s.queries.rows());
  std::vector<double> ood_us(static_cast<size_t>(used_rows));
  std::vector<double> forward_us(static_cast<size_t>(used_rows));
  ServingModel::ScoreOptions ungated;
  ungated.ood = false;
  for (int64_t q = 0; q < used_rows; ++q) {
    sbrl::Matrix row(1, s.queries.cols());
    for (int64_t j = 0; j < s.queries.cols(); ++j) row(0, j) = s.queries(q, j);
    Clock::time_point start = Clock::now();
    const double level = s.model->RowOodLevel(row);
    ood_us[static_cast<size_t>(q)] = 1e6 * SecondsSince(start);
    ledger.Check(level == reference[static_cast<size_t>(q)].ood_level,
                 "replayed RowOodLevel differs from ScoreRows");
    start = Clock::now();
    const std::vector<ServingModel::RowScore> scored =
        s.model->ScoreRows(row, ungated);
    forward_us[static_cast<size_t>(q)] = 1e6 * SecondsSince(start);
    ledger.Check(scored[0].y0 == reference[static_cast<size_t>(q)].y0 &&
                     scored[0].y1 == reference[static_cast<size_t>(q)].y1,
                 "replayed ungated forward differs from ScoreRows");
  }
  std::vector<double> queue_wait_ms;
  for (size_t i = 0; i < traced_base.latency_ms.size(); ++i) {
    const size_t q = i % static_cast<size_t>(s.queries.rows());
    queue_wait_ms.push_back(traced_base.latency_ms[i] -
                            1e-3 * (ood_us[q] + forward_us[q]));
  }
  SetLayer(record, "serve.ood_row_us", Median(ood_us), used_rows);
  SetLayer(record, "serve.forward_row_us", Median(forward_us), used_rows);
  const int64_t waits = static_cast<int64_t>(queue_wait_ms.size());
  SetLayer(record, "serve.queue_wait_p50_ms", Median(queue_wait_ms), waits);
  SetLayer(record, "serve.queue_wait_tail_ms",
           Quantile(queue_wait_ms, TailPercentile(waits) / 100.0), waits);
  SetLayer(record, "serve.batch_rows",
           traced.batches > 0 ? static_cast<double>(traced.rows_scored) /
                                    static_cast<double>(traced.batches)
                              : 0.0,
           traced.batches);
  SetLayer(record, "serve.late_tail_ms", traced_base.late_tail_ms,
           traced_base.requests);
  SetLayer(record, "serve.load_s", load_s, kSetupRepeats);
  RecordOverhead(record->e2e, OnlineEndToEnd(traced, setup_s, traced_peak),
                 record);
}

namespace {

struct BulkPhase {
  std::vector<double> f64_s, f32_s, gated_s, ood_s;
  double peak = 0.0;
};

BulkPhase MeasureBulk(const Served& s, double seconds, bool trace,
                      const sbrl::Matrix& ref64, const sbrl::Matrix& ref32,
                      double ref_level, Ledger* ledger) {
  BulkPhase phase;
  ResetPeakRss();
  RunRounds(seconds, 1, [&] {
    Clock::time_point start = Clock::now();
    const sbrl::Matrix out64 = s.model->ScoreOutcomes(s.queries);
    phase.f64_s.push_back(SecondsSince(start));
    start = Clock::now();
    const sbrl::Matrix out32 = s.model32->ScoreOutcomes(s.queries);
    phase.f32_s.push_back(SecondsSince(start));
    start = Clock::now();
    const ServingModel::BatchScore gated = s.model->Score(s.queries);
    phase.gated_s.push_back(SecondsSince(start));
    bool same64 = true, same32 = true, same_gated = true;
    for (int64_t i = 0; i < ref64.size(); ++i) {
      same64 = same64 && out64[i] == ref64[i];
      same32 = same32 && out32[i] == ref32[i];
      same_gated = same_gated && gated.outcomes[i] == ref64[i];
    }
    ledger->Check(same64, "f64 bulk scores differ between calls");
    ledger->Check(same32, "f32 bulk scores differ between calls");
    ledger->Check(same_gated && gated.ood_level == ref_level,
                  "gated bulk scores or verdict differ from the ungated f64");
    if (trace) {
      start = Clock::now();
      const double level = s.model->OodLevelOf(s.queries);
      phase.ood_s.push_back(SecondsSince(start));
      ledger->Check(level == ref_level, "replayed OodLevelOf differs");
    }
  });
  phase.peak = PeakRssMb();
  return phase;
}

std::map<std::string, Metric> BulkEndToEnd(const BulkPhase& p, double setup_s,
                                           double peak) {
  // A round scores the batch once in each of the three ways.
  std::vector<double> calls_ms, round_s;
  for (size_t i = 0; i < p.f64_s.size(); ++i) {
    round_s.push_back(p.f64_s[i] + p.f32_s[i] + p.gated_s[i]);
    for (const double t : {p.f64_s[i], p.f32_s[i], p.gated_s[i]}) {
      calls_ms.push_back(1e3 * t);
    }
  }
  const int64_t calls = static_cast<int64_t>(calls_ms.size());
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {setup_s, "s", kSetupRepeats};
  e2e["peak_rss_mb"] = {peak, "MiB", 1};
  e2e["rows_per_s"] = {3.0 * static_cast<double>(kBulkRows) / Median(round_s),
                       "1/s", static_cast<int64_t>(round_s.size())};
  e2e["latency_ms"] = {Median(calls_ms), "ms", calls};
  return e2e;
}

}  // namespace

void RunServeBulk(const RunArgs& args, RunRecord* record) {
  Ledger& ledger = record->ledger;
  double setup_s = 0.0, load_s = 0.0;
  const Served s = SetUpRepeated(args, kBulkRows, /*with_f32=*/true, &ledger,
                                 &setup_s, &load_s);
  if (!s.model.has_value() || !s.model32.has_value()) return;
  const double setup_peak = PeakRssMb();

  // Reference outputs (also the warm-up calls), and the f32 tier's
  // error budget against f64.
  const sbrl::Matrix ref64 = s.model->ScoreOutcomes(s.queries);
  const sbrl::Matrix ref32 = s.model32->ScoreOutcomes(s.queries);
  double max_diff = 0.0;
  for (int64_t i = 0; i < ref64.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(ref64[i] - ref32[i]));
  }
  ledger.Check(max_diff <= kF32Budget, "f32 bulk output outside the budget");
  const double ref_level = s.model->Score(s.queries).ood_level;

  const BulkPhase run = MeasureBulk(s, args.seconds, false, ref64, ref32,
                                    ref_level, &ledger);
  record->e2e =
      BulkEndToEnd(run, setup_s, std::max(setup_peak, run.peak));
  const double rows = static_cast<double>(kBulkRows);
  const int64_t rounds = static_cast<int64_t>(run.f64_s.size());
  record->named["bulk_f64_rows_per_s"] = {rows / Median(run.f64_s), "1/s",
                                          rounds};
  record->named["bulk_f32_rows_per_s"] = {rows / Median(run.f32_s), "1/s",
                                          rounds};
  record->named["bulk_gated_rows_per_s"] = {rows / Median(run.gated_s), "1/s",
                                            rounds};
  record->named["bulk_f32_max_abs_diff"] = {max_diff, "1", 1};
  if (!args.trace) return;

  const BulkPhase traced = MeasureBulk(s, args.seconds, true, ref64, ref32,
                                       ref_level, &ledger);
  const int64_t traced_rounds = static_cast<int64_t>(traced.f64_s.size());
  const double f64_s = Median(traced.f64_s);
  const double f32_s = Median(traced.f32_s);
  const double flops = ForwardFlops(s.model->meta(), kBulkRows);
  SetLayer(record, "serve.forward_f64_ms", 1e3 * f64_s, traced_rounds);
  SetLayer(record, "serve.forward_f32_ms", 1e3 * f32_s, traced_rounds);
  SetLayer(record, "serve.ood_batch_ms", 1e3 * Median(traced.ood_s),
           traced_rounds);
  SetLayer(record, "tensor.forward_f64_gflop_per_s", flops / f64_s / 1e9,
           traced_rounds);
  SetLayer(record, "tensor.forward_f32_gflop_per_s", flops / f32_s / 1e9,
           traced_rounds);
  SetLayer(record, "serve.load_s", load_s, kSetupRepeats);
  RecordOverhead(
      record->e2e,
      BulkEndToEnd(traced, setup_s, std::max(setup_peak, traced.peak)),
      record);
}

}  // namespace perfbench
