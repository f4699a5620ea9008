#include "core/ood_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/ipm.h"
#include "tensor/linalg.h"

namespace sbrl {

StatusOr<OodLevelDetector> OodLevelDetector::Fit(const Matrix& source,
                                                 const Options& options) {
  if (source.rows() < 10) {
    return Status::InvalidArgument(
        "OOD detector needs at least 10 source rows");
  }
  if (options.calibration_rounds < 2) {
    return Status::InvalidArgument("calibration_rounds must be >= 2");
  }
  if (options.projections < 1) {
    return Status::InvalidArgument("projections must be >= 1");
  }
  if (options.quadratic_features < 0) {
    return Status::InvalidArgument("quadratic_features must be >= 0");
  }
  OodLevelDetector detector;
  detector.source_ = source;
  detector.options_ = options;

  Rng rng(options.seed);
  const int64_t d = source.cols();
  if (d > 1) {
    for (int64_t k = 0; k < options.quadratic_features; ++k) {
      const int64_t i = rng.UniformInt(0, d - 1);
      int64_t j = rng.UniformInt(0, d - 2);
      if (j >= i) ++j;
      detector.quad_pairs_.emplace_back(i, j);
    }
  }

  // Standardization statistics come from the raw augmented source.
  auto raw_augment = [&detector](const Matrix& x) {
    Matrix out(x.rows(),
               x.cols() + static_cast<int64_t>(detector.quad_pairs_.size()));
    for (int64_t r = 0; r < x.rows(); ++r) {
      for (int64_t c = 0; c < x.cols(); ++c) out(r, c) = x(r, c);
      for (size_t q = 0; q < detector.quad_pairs_.size(); ++q) {
        const auto& [i, j] = detector.quad_pairs_[q];
        out(r, x.cols() + static_cast<int64_t>(q)) = x(r, i) * x(r, j);
      }
    }
    return out;
  };
  Matrix raw = raw_augment(source);
  detector.col_mean_ = ColMean(raw);
  detector.col_std_ = Matrix(1, raw.cols());
  for (int64_t c = 0; c < raw.cols(); ++c) {
    double var = 0.0;
    for (int64_t r = 0; r < raw.rows(); ++r) {
      const double dm = raw(r, c) - detector.col_mean_(0, c);
      var += dm * dm;
    }
    var /= static_cast<double>(raw.rows());
    detector.col_std_(0, c) = std::sqrt(var) > 1e-9 ? std::sqrt(var) : 1.0;
  }
  detector.source_augmented_ = detector.Augment(source);

  // Null distribution: distances between disjoint half-splits of the
  // source, which is what "same distribution" looks like at this n.
  std::vector<double> null_distances;
  null_distances.reserve(static_cast<size_t>(options.calibration_rounds));
  const int64_t n = source.rows();
  for (int64_t round = 0; round < options.calibration_rounds; ++round) {
    std::vector<int64_t> perm = rng.Permutation(n);
    std::vector<int64_t> a(perm.begin(), perm.begin() + n / 2);
    std::vector<int64_t> b(perm.begin() + n / 2, perm.end());
    Matrix half_a = GatherRows(detector.source_augmented_, a);
    Matrix half_b = GatherRows(detector.source_augmented_, b);
    Rng proj_rng(options.seed + 1000 + static_cast<uint64_t>(round));
    null_distances.push_back(
        MaxSlicedWasserstein1(half_a, half_b, options.projections, proj_rng));
  }
  std::sort(null_distances.begin(), null_distances.end());
  const size_t q95_idx = static_cast<size_t>(
      0.95 * static_cast<double>(null_distances.size() - 1));
  detector.null_q95_ = null_distances[q95_idx];
  double mean = 0.0;
  for (double v : null_distances) mean += v;
  mean /= static_cast<double>(null_distances.size());
  detector.null_scale_ = std::max(mean, 1e-9);
  return detector;
}

OodLevelDetector::State OodLevelDetector::ExportState() const {
  State state;
  state.options = options_;
  state.source = source_;
  state.quad_pairs = quad_pairs_;
  state.col_mean = col_mean_;
  state.col_std = col_std_;
  state.null_q95 = null_q95_;
  state.null_scale = null_scale_;
  return state;
}

StatusOr<OodLevelDetector> OodLevelDetector::FromState(const State& state) {
  const int64_t d = state.source.cols();
  const int64_t d_aug =
      d + static_cast<int64_t>(state.quad_pairs.size());
  if (state.source.rows() < 1 || d < 1) {
    return Status::InvalidArgument("OOD state: empty source matrix");
  }
  for (const auto& [i, j] : state.quad_pairs) {
    if (i < 0 || i >= d || j < 0 || j >= d) {
      return Status::InvalidArgument(
          "OOD state: quadratic pair index out of range");
    }
  }
  if (state.col_mean.rows() != 1 || state.col_mean.cols() != d_aug ||
      !state.col_std.same_shape(state.col_mean)) {
    return Status::InvalidArgument(
        "OOD state: standardization statistics shape mismatch");
  }
  for (int64_t c = 0; c < d_aug; ++c) {
    if (!(state.col_std(0, c) > 0.0)) {
      return Status::InvalidArgument("OOD state: non-positive column std");
    }
  }
  if (!(state.null_scale > 0.0)) {
    return Status::InvalidArgument("OOD state: non-positive null scale");
  }
  OodLevelDetector detector;
  detector.options_ = state.options;
  detector.source_ = state.source;
  detector.quad_pairs_ = state.quad_pairs;
  detector.col_mean_ = state.col_mean;
  detector.col_std_ = state.col_std;
  detector.null_q95_ = state.null_q95;
  detector.null_scale_ = state.null_scale;
  detector.source_augmented_ = detector.Augment(detector.source_);
  return detector;
}

Matrix OodLevelDetector::Augment(const Matrix& x) const {
  Matrix out(x.rows(),
             x.cols() + static_cast<int64_t>(quad_pairs_.size()));
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - col_mean_(0, c)) / col_std_(0, c);
    }
    for (size_t q = 0; q < quad_pairs_.size(); ++q) {
      const auto& [i, j] = quad_pairs_[q];
      const int64_t c = x.cols() + static_cast<int64_t>(q);
      out(r, c) = (x(r, i) * x(r, j) - col_mean_(0, c)) / col_std_(0, c);
    }
  }
  return out;
}

double OodLevelDetector::DistanceTo(const Matrix& target) const {
  SBRL_CHECK_EQ(target.cols(), source_.cols());
  SBRL_CHECK_GT(target.rows(), 0);
  const Matrix augmented = Augment(target);
  // A non-finite feature is maximally OOD, never averaged away: NaN
  // would vanish through std::max inside the sliced metric (and NaN
  // keys are not a valid ordering for its sorts).
  for (int64_t i = 0; i < augmented.size(); ++i) {
    if (!std::isfinite(augmented[i])) {
      return std::numeric_limits<double>::infinity();
    }
  }
  Rng proj_rng(options_.seed + 999);
  return MaxSlicedWasserstein1(source_augmented_, augmented,
                               options_.projections, proj_rng);
}

double OodLevelDetector::LevelOf(const Matrix& target) const {
  const double distance = DistanceTo(target);
  const double excess = std::max(0.0, distance - null_q95_);
  return 1.0 - std::exp(-excess / null_scale_);
}

}  // namespace sbrl
