// OOD gating through the serving stack: a fitted OodLevelDetector
// exported with a model must reload verbatim (bitwise-identical
// levels), batch scoring must flag shifted populations and pass
// in-distribution ones at a fixed threshold, and per-row stamps must
// separate shifted rows from in-distribution rows independently of
// which other rows share the batch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/ood_detector.h"
#include "data/synthetic.h"
#include "serve/micro_batcher.h"
#include "serve/model_format.h"
#include "serve/serving_model.h"
#include "stats/ipm.h"
#include "tensor/random.h"

namespace sbrl {
namespace serve {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A minimal CFR-shaped model over 4 covariates carrying `detector`'s
// state; the network itself is incidental — these tests are about the
// OOD stamps.
ServingModelData MakeDataWithDetector(const OodLevelDetector& detector) {
  ServingModelData data;
  data.meta.backbone = BackboneKind::kCfr;
  data.meta.framework = FrameworkKind::kVanilla;
  data.meta.method_name = "handcrafted";
  data.meta.input_dim = 4;
  data.meta.network.rep_layers = 1;
  data.meta.network.rep_width = 3;
  data.meta.network.head_layers = 1;
  data.meta.network.head_width = 3;
  Rng rng(7);
  auto dense = [&](const std::string& name, int64_t in, int64_t out) {
    data.weights.push_back({name + ".W", rng.Randn(in, out)});
    data.weights.push_back({name + ".b", rng.Randn(1, out)});
  };
  dense("rep.l0", 4, 3);
  dense("heads.h0.l0", 3, 3);
  dense("heads.h1.l0", 3, 3);
  dense("heads.h0.out", 3, 1);
  dense("heads.h1.out", 3, 1);
  data.has_ood = true;
  data.ood = detector.ExportState();
  return data;
}

// Loads a served model whose detector state went through the on-disk
// format once.
ServingModel RoundTripModel(const OodLevelDetector& detector,
                            const std::string& name) {
  const std::string path = TestPath(name);
  const Status saved = SaveServingModel(MakeDataWithDetector(detector), path);
  SBRL_CHECK(saved.ok()) << saved.ToString();
  StatusOr<ServingModel> model = ServingModel::Load(path);
  SBRL_CHECK(model.ok()) << model.status().ToString();
  std::remove(path.c_str());
  return std::move(model.value());
}

TEST(ServingOodTest, ReloadedDetectorIsBitwiseIdenticalToOriginal) {
  Rng rng(2);
  const Matrix source = rng.Randn(600, 4);
  StatusOr<OodLevelDetector> detector = OodLevelDetector::Fit(source);
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "verbatim.model");
  ASSERT_TRUE(model.has_ood_detector());

  // Deterministic detectors + verbatim state => bitwise-equal levels,
  // in and far out of distribution.
  const Matrix in_dist = rng.Randn(50, 4);
  const Matrix shifted = rng.Randn(50, 4, /*mean=*/3.0, /*stddev=*/1.0);
  EXPECT_EQ(model.OodLevelOf(in_dist), detector->LevelOf(in_dist));
  EXPECT_EQ(model.OodLevelOf(shifted), detector->LevelOf(shifted));
}

TEST(ServingOodTest, BatchGatingFlagsShiftedPopulationsOnly) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "batch_gate.model");

  // Mirrors the detector's own calibration contract (extension_test):
  // a same-distribution population sits well under the 0.5 gate, a
  // +3 sigma mean shift saturates it.
  const Matrix in_dist = rng.Randn(300, 4);
  const Matrix shifted = rng.Randn(300, 4, /*mean=*/3.0, /*stddev=*/1.0);

  const ServingModel::BatchScore ok = model.Score(in_dist);
  EXPECT_LT(ok.ood_level, 0.35);
  EXPECT_FALSE(ok.ood_flagged);

  const ServingModel::BatchScore bad = model.Score(shifted);
  EXPECT_GT(bad.ood_level, 0.8);
  EXPECT_TRUE(bad.ood_flagged);
}

TEST(ServingOodTest, RowGatingSeparatesShiftedRowsFromInDistRows) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "row_gate.model");

  // Single rows go through the row-level null (a one-row population is
  // far from any source even in distribution); the calibrated null
  // must keep in-distribution rows clearly under the gate and shifted
  // rows clearly over it.
  const Matrix in_dist = rng.Randn(12, 4);
  const Matrix shifted = rng.Randn(12, 4, /*mean=*/3.0, /*stddev=*/1.0);
  ServingModel::ScoreOptions options;
  options.ood_threshold = 0.5;

  for (const ServingModel::RowScore& row : model.ScoreRows(in_dist, options)) {
    EXPECT_LT(row.ood_level, 0.25);
    EXPECT_FALSE(row.ood_flagged);
  }
  for (const ServingModel::RowScore& row : model.ScoreRows(shifted, options)) {
    EXPECT_GT(row.ood_level, 0.8);
    EXPECT_TRUE(row.ood_flagged);
  }
}

TEST(ServingOodTest, RowStampsAreInvariantToBatchComposition) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "row_invariant.model");

  // A mixed batch of in-distribution and shifted rows: each row's
  // stamp must equal the stamp it gets scored alone — the invariant
  // that makes micro-batch coalescing safe for gating.
  Matrix mixed(6, 4);
  const Matrix in_dist = rng.Randn(3, 4);
  const Matrix shifted = rng.Randn(3, 4, 3.0, 1.0);
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t i = 0; i < 3; ++i) {
      mixed(i, c) = in_dist(i, c);
      mixed(3 + i, c) = shifted(i, c);
    }
  }
  const std::vector<ServingModel::RowScore> batched = model.ScoreRows(mixed);
  Matrix row(1, 4);
  for (int64_t i = 0; i < mixed.rows(); ++i) {
    for (int64_t c = 0; c < 4; ++c) row(0, c) = mixed(i, c);
    const std::vector<ServingModel::RowScore> alone = model.ScoreRows(row);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(batched[static_cast<size_t>(i)].ood_level, alone[0].ood_level);
    EXPECT_EQ(batched[static_cast<size_t>(i)].ood_flagged,
              alone[0].ood_flagged);
  }
}

TEST(ServingOodTest, MicroBatcherStampsRowVerdicts) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "batcher_gate.model");

  MicroBatcher::Options options;
  options.ood = true;
  options.ood_threshold = 0.5;
  MicroBatcher batcher(&model, options);

  const Matrix in_dist = rng.Randn(1, 4);
  const Matrix shifted = rng.Randn(1, 4, 3.0, 1.0);
  std::vector<double> row(4);
  for (int64_t c = 0; c < 4; ++c) row[static_cast<size_t>(c)] = in_dist(0, c);
  EXPECT_FALSE(batcher.ScoreRow(row).ood_flagged);
  for (int64_t c = 0; c < 4; ++c) row[static_cast<size_t>(c)] = shifted(0, c);
  EXPECT_TRUE(batcher.ScoreRow(row).ood_flagged);
}

// A non-finite feature is maximally OOD, never certified in
// distribution: NaN used to vanish through the sliced metric's
// std::max, so a batch with an all-NaN column scored a SMALLER distance
// than a clean batch and was stamped level 0. Every gate — batch,
// per-row, and the micro-batcher — must stamp level exactly 1.0.
TEST(ServingOodTest, NonFiniteRequestsAreMaximallyOod) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  const ServingModel model = RoundTripModel(*detector, "nonfinite.model");

  Matrix nan_column = rng.Randn(300, 4);
  for (int64_t i = 0; i < nan_column.rows(); ++i) {
    nan_column(i, 2) = std::numeric_limits<double>::quiet_NaN();
  }
  Matrix inf_row = rng.Randn(1, 4);
  inf_row(0, 1) = std::numeric_limits<double>::infinity();

  for (const Matrix* x : {&nan_column, &inf_row}) {
    const ServingModel::BatchScore batch = model.Score(*x);
    EXPECT_EQ(batch.ood_level, 1.0);
    EXPECT_TRUE(batch.ood_flagged);
    for (const ServingModel::RowScore& row : model.ScoreRows(*x)) {
      EXPECT_EQ(row.ood_level, 1.0);
      EXPECT_TRUE(row.ood_flagged);
    }
  }

  MicroBatcher::Options options;
  options.ood = true;
  options.ood_threshold = 0.5;
  MicroBatcher batcher(&model, options);
  for (const Matrix* x : {&nan_column, &inf_row}) {
    std::vector<double> row(4);
    for (int64_t c = 0; c < 4; ++c) row[static_cast<size_t>(c)] = (*x)(0, c);
    const ServingModel::RowScore scored = batcher.ScoreRow(row);
    EXPECT_EQ(scored.ood_level, 1.0);
    EXPECT_TRUE(scored.ood_flagged);
  }
}

// The reference the detector's slice table must reproduce: augment by
// the exported statistics, then the max-sliced metric with the
// projection stream DistanceTo documents.
Matrix OracleAugment(const OodLevelDetector::State& state, const Matrix& x) {
  const int64_t d = x.cols();
  Matrix out(x.rows(), d + static_cast<int64_t>(state.quad_pairs.size()));
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t c = 0; c < d; ++c) {
      out(r, c) = (x(r, c) - state.col_mean(0, c)) / state.col_std(0, c);
    }
    for (size_t q = 0; q < state.quad_pairs.size(); ++q) {
      const auto& [i, j] = state.quad_pairs[q];
      const int64_t c = d + static_cast<int64_t>(q);
      out(r, c) =
          (x(r, i) * x(r, j) - state.col_mean(0, c)) / state.col_std(0, c);
    }
  }
  return out;
}

double OracleDistance(const OodLevelDetector::State& state,
                      const Matrix& target) {
  Rng proj_rng(state.options.seed + 999);
  return MaxSlicedWasserstein1(OracleAugment(state, state.source),
                               OracleAugment(state, target),
                               state.options.projections, proj_rng);
}

Matrix RowOf(const Matrix& x, int64_t r) {
  Matrix row(1, x.cols());
  for (int64_t c = 0; c < x.cols(); ++c) row(0, c) = x(r, c);
  return row;
}

// The one-row point path (binary search + coarse prefix sums over the
// load-time sorted slices) against the full quantile-coupled metric:
// only the summation order differs, so agreement is to 1e-12 relative.
// Source sizes cover n < kPrefixStride (20), n a multiple of it (64),
// and n with a partial last stride (75, 600); rows cover in- and
// out-of-distribution points, points beyond every slice's extremes
// (k = 0 and k = n), and every source row itself, whose values tie
// with sorted entries on binary-search and stride boundaries.
TEST(ServingOodTest, RowDistanceMatchesMaxSlicedOracle) {
  for (const int64_t n : {20, 64, 75, 600}) {
    Rng rng(static_cast<uint64_t>(40 + n));
    const Matrix source = rng.Randn(n, 5);
    StatusOr<OodLevelDetector> fitted = OodLevelDetector::Fit(source);
    ASSERT_TRUE(fitted.ok());
    const OodLevelDetector::State state = fitted->ExportState();
    StatusOr<OodLevelDetector> reloaded = OodLevelDetector::FromState(state);
    ASSERT_TRUE(reloaded.ok());

    std::vector<Matrix> rows;
    for (int64_t r = 0; r < n; r += n <= 75 ? 1 : 7) {
      rows.push_back(RowOf(source, r));
    }
    for (int64_t i = 0; i < 6; ++i) {
      rows.push_back(rng.Randn(1, 5));
      rows.push_back(rng.Randn(1, 5, /*mean=*/3.0, /*stddev=*/1.0));
      rows.push_back(rng.Randn(1, 5, /*mean=*/-8.0, /*stddev=*/2.0));
    }
    // Linear features far below every axis and quadratic ones far
    // above, and the mirror image.
    rows.push_back(Matrix(1, 5, -1e3));
    rows.push_back(Matrix(1, 5, 1e3));

    for (const Matrix& row : rows) {
      const double want = OracleDistance(state, row);
      ASSERT_TRUE(std::isfinite(want));
      for (const OodLevelDetector* detector : {&*fitted, &*reloaded}) {
        const double got = detector->DistanceTo(row);
        EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
            << "n=" << n << " got " << got << " want " << want;
      }
    }
  }
}

// The batch path sorts only the target against the stored sorted
// slices: bitwise equal to the oracle, distance and level alike.
TEST(ServingOodTest, BatchLevelIsBitwiseEqualToMaxSlicedOracle) {
  for (const int64_t n : {20, 75, 600}) {
    Rng rng(static_cast<uint64_t>(90 + n));
    StatusOr<OodLevelDetector> detector =
        OodLevelDetector::Fit(rng.Randn(n, 5));
    ASSERT_TRUE(detector.ok());
    const OodLevelDetector::State state = detector->ExportState();
    for (const int64_t m : {2, 31, 300}) {
      for (const double shift : {0.0, 3.0}) {
        const Matrix target = rng.Randn(m, 5, shift, 1.0);
        const double want = OracleDistance(state, target);
        EXPECT_EQ(detector->DistanceTo(target), want);
        const double level =
            1.0 - std::exp(-std::max(0.0, want - state.null_q95) /
                           state.null_scale);
        EXPECT_EQ(detector->LevelOf(target), level)
            << "n=" << n << " m=" << m << " shift=" << shift;
      }
    }
  }
}

// The slice table sorts the standardized source, so a non-finite
// source value (a corrupted training matrix or model file) is rejected
// at Fit and FromState instead of poisoning every later distance.
TEST(ServingOodTest, NonFiniteSourceIsRejected) {
  Rng rng(2);
  Matrix source = rng.Randn(100, 4);
  StatusOr<OodLevelDetector> fitted = OodLevelDetector::Fit(source);
  ASSERT_TRUE(fitted.ok());
  OodLevelDetector::State state = fitted->ExportState();

  source(17, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(OodLevelDetector::Fit(source).ok());
  state.source(3, 2) = std::numeric_limits<double>::infinity();
  const StatusOr<OodLevelDetector> reloaded =
      OodLevelDetector::FromState(state);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServingOodTest, EstimatorExportCarriesFittedDetector) {
  // The full export path: train a real estimator, fit the detector on
  // its training covariates, export both, reload, and require the
  // served levels to be bitwise equal to the original detector's.
  SyntheticDims dims;
  dims.m_i = 3;
  dims.m_c = 3;
  dims.m_a = 3;
  dims.m_v = 1;
  SyntheticModel synthetic(dims, 501);
  const CausalDataset train = synthetic.SampleEnvironment(150, 2.5, 502);

  EstimatorConfig config;
  config.backbone = BackboneKind::kCfr;
  config.framework = FrameworkKind::kVanilla;
  config.network.rep_layers = 1;
  config.network.rep_width = 8;
  config.network.head_layers = 1;
  config.network.head_width = 8;
  config.train.iterations = 10;
  config.train.seed = 12;
  config.train.eval_every = 0;
  StatusOr<HteEstimator> estimator = HteEstimator::Create(config);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE(estimator->Fit(train).ok());

  StatusOr<OodLevelDetector> detector = OodLevelDetector::Fit(train.x);
  ASSERT_TRUE(detector.ok());

  const std::string path = TestPath("export_detector.model");
  ASSERT_TRUE(ExportServingModel(*estimator, &*detector, path).ok());
  StatusOr<ServingModel> model = ServingModel::Load(path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::remove(path.c_str());

  ASSERT_TRUE(model->has_ood_detector());
  const CausalDataset probe = synthetic.SampleEnvironment(80, -2.5, 503);
  EXPECT_EQ(model->OodLevelOf(probe.x), detector->LevelOf(probe.x));
  EXPECT_EQ(model->OodLevelOf(train.x), detector->LevelOf(train.x));
}

TEST(ServingOodTest, NoDetectorMeansNeutralStamps) {
  Rng rng(2);
  StatusOr<OodLevelDetector> detector =
      OodLevelDetector::Fit(rng.Randn(600, 4));
  ASSERT_TRUE(detector.ok());
  ServingModelData data = MakeDataWithDetector(*detector);
  data.has_ood = false;
  data.ood = OodLevelDetector::State();
  StatusOr<ServingModel> model = ServingModel::FromData(std::move(data));
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->has_ood_detector());

  const Matrix shifted = rng.Randn(5, 4, 3.0, 1.0);
  const ServingModel::BatchScore batch = model->Score(shifted);
  EXPECT_EQ(batch.ood_level, 0.0);
  EXPECT_FALSE(batch.ood_flagged);
  for (const ServingModel::RowScore& row : model->ScoreRows(shifted)) {
    EXPECT_EQ(row.ood_level, 0.0);
    EXPECT_FALSE(row.ood_flagged);
  }
}

}  // namespace
}  // namespace serve
}  // namespace sbrl
