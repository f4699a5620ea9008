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
  const Matrix augmented = detector.Augment(source);
  SBRL_RETURN_IF_ERROR(detector.BuildSlices(augmented));

  // Null distribution: distances between disjoint half-splits of the
  // source, which is what "same distribution" looks like at this n.
  std::vector<double> null_distances;
  null_distances.reserve(static_cast<size_t>(options.calibration_rounds));
  const int64_t n = source.rows();
  for (int64_t round = 0; round < options.calibration_rounds; ++round) {
    std::vector<int64_t> perm = rng.Permutation(n);
    std::vector<int64_t> a(perm.begin(), perm.begin() + n / 2);
    std::vector<int64_t> b(perm.begin() + n / 2, perm.end());
    Matrix half_a = GatherRows(augmented, a);
    Matrix half_b = GatherRows(augmented, b);
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
  SBRL_RETURN_IF_ERROR(
      detector.BuildSlices(detector.Augment(detector.source_)));
  return detector;
}

Matrix OodLevelDetector::Augment(const Matrix& x) const {
  Matrix out(x.rows(),
             x.cols() + static_cast<int64_t>(quad_pairs_.size()));
  for (int64_t r = 0; r < x.rows(); ++r) {
    AugmentRow(x.data() + r * x.cols(), out.data() + r * out.cols());
  }
  return out;
}

void OodLevelDetector::AugmentRow(const double* x, double* out) const {
  const int64_t d = source_.cols();
  for (int64_t c = 0; c < d; ++c) {
    out[c] = (x[c] - col_mean_(0, c)) / col_std_(0, c);
  }
  for (size_t q = 0; q < quad_pairs_.size(); ++q) {
    const auto& [i, j] = quad_pairs_[q];
    const int64_t c = d + static_cast<int64_t>(q);
    out[c] = (x[i] * x[j] - col_mean_(0, c)) / col_std_(0, c);
  }
}

Status OodLevelDetector::BuildSlices(const Matrix& augmented) {
  for (int64_t i = 0; i < augmented.size(); ++i) {
    if (!std::isfinite(augmented[i])) {
      return Status::InvalidArgument(
          "OOD detector: non-finite standardized source value");
    }
  }
  // The directions MaxSlicedWasserstein1 draws from Rng(seed + 999),
  // in the same order with the same near-zero skip.
  const int64_t d_aug = augmented.cols();
  Rng proj_rng(options_.seed + 999);
  std::vector<Matrix> directions;
  for (int64_t p = 0; p < options_.projections; ++p) {
    Matrix dir = proj_rng.Randn(d_aug, 1);
    const double norm = dir.Norm();
    if (norm < 1e-12) continue;
    dir *= 1.0 / norm;
    directions.push_back(std::move(dir));
  }
  const int64_t kept = static_cast<int64_t>(directions.size());
  directions_ = Matrix(d_aug, kept);
  for (int64_t p = 0; p < kept; ++p) {
    for (int64_t c = 0; c < d_aug; ++c) {
      directions_(c, p) = directions[static_cast<size_t>(p)](c, 0);
    }
  }

  const int64_t n = augmented.rows();
  const int64_t slices = d_aug + kept;
  const int64_t sums = PrefixSums();
  sorted_.assign(static_cast<size_t>(slices * n), 0.0);
  prefix_.assign(static_cast<size_t>(slices * sums), 0.0);
  mean_.assign(static_cast<size_t>(slices), 0.0);
  spread_.assign(static_cast<size_t>(slices), 0.0);
  for (int64_t s = 0; s < slices; ++s) {
    double* values = sorted_.data() + s * n;
    if (s < d_aug) {
      for (int64_t r = 0; r < n; ++r) values[r] = augmented(r, s);
    } else {
      const Matrix projected =
          Matmul(augmented, directions[static_cast<size_t>(s - d_aug)]);
      std::copy(projected.data(), projected.data() + n, values);
    }
    std::sort(values, values + n);
    double* prefix = prefix_.data() + s * sums;
    double sum = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      if (r % kPrefixStride == 0) prefix[r / kPrefixStride] = sum;
      sum += values[r];
    }
    // Entries at or past n hold S(n).
    for (int64_t b = (n + kPrefixStride - 1) / kPrefixStride; b < sums; ++b) {
      prefix[b] = sum;
    }
    const double mean = sum / static_cast<double>(n);
    double spread = 0.0;
    for (int64_t r = 0; r < n; ++r) spread += std::abs(values[r] - mean);
    mean_[static_cast<size_t>(s)] = mean;
    spread_[static_cast<size_t>(s)] = spread / static_cast<double>(n);
  }
  return Status::OK();
}

double OodLevelDetector::PointW1(int64_t slice, double t) const {
  const int64_t n = source_.rows();
  const double* values = sorted_.data() + slice * n;
  const double* prefix = prefix_.data() + slice * PrefixSums();
  // k = #{s_i < t}: a lower bound whose halving step is arithmetic
  // (compiled to a conditional move), not an unpredictable branch.
  const double* base = values;
  for (int64_t len = n; len > 1;) {
    const int64_t half = len / 2;
    base += static_cast<int64_t>(base[half - 1] < t) * half;
    len -= half;
  }
  const int64_t k = (base - values) + static_cast<int64_t>(*base < t);
  // S(k) from the nearer stored sum, S(lo) or S(hi), plus or minus at
  // most kPrefixStride / 2 values.
  const int64_t block = k / kPrefixStride;
  const int64_t lo = block * kPrefixStride;
  const int64_t hi = std::min(lo + kPrefixStride, n);
  double below;
  if (k - lo <= hi - k) {
    below = prefix[block];
    for (int64_t i = lo; i < k; ++i) below += values[i];
  } else {
    below = prefix[block + 1];
    for (int64_t i = k; i < hi; ++i) below -= values[i];
  }
  // Each side only when non-empty, so t = +-inf never meets inf * 0.
  const double total = prefix[PrefixSums() - 1];
  double sum = 0.0;
  if (k > 0) sum += t * static_cast<double>(k) - below;
  if (k < n) sum += (total - below) - t * static_cast<double>(n - k);
  return sum / static_cast<double>(n);
}

double OodLevelDetector::PointDistance(double* t) const {
  const int64_t d_aug = directions_.rows();
  const int64_t kept = directions_.cols();
  const int64_t slices = d_aug + kept;

  // All projections at once, each accumulated in ascending coordinate
  // order like a dot product.
  double* projected = t + d_aug;
  std::fill(projected, projected + kept, 0.0);
  for (int64_t c = 0; c < d_aug; ++c) {
    const double a = t[c];
    const double* row = directions_.data() + c * kept;
    for (int64_t p = 0; p < kept; ++p) projected[p] += a * row[p];
  }

  // Exact slice values are needed only where the max can be. By the
  // triangle inequality, |t - m| <= W1(t) <= |t - m| + dev for a slice
  // with mean m and mean absolute deviation dev about m. Start from the
  // slice with the largest lower bound, then skip every slice whose
  // upper bound — widened by kBoundSlack, far above the rounding error
  // of either side — stays below the best exact value: it cannot hold
  // the max, so the result is the full scan's, bit for bit. (A NaN
  // projection fails every comparison and drops out, as it does from
  // the full scan's std::max.)
  constexpr double kBoundSlack = 1e-6;
  int64_t first = 0;
  double first_lower = -1.0;
  for (int64_t s = 0; s < slices; ++s) {
    const double lower = std::abs(t[s] - mean_[static_cast<size_t>(s)]);
    if (lower > first_lower) {
      first_lower = lower;
      first = s;
    }
  }
  double worst = PointW1(first, t[first]);
  for (int64_t s = 0; s < slices; ++s) {
    const double upper = (std::abs(t[s] - mean_[static_cast<size_t>(s)]) +
                          spread_[static_cast<size_t>(s)]) *
                         (1.0 + kBoundSlack);
    if (s != first && upper >= worst) {
      worst = std::max(worst, PointW1(s, t[s]));
    }
  }
  return worst;
}

double OodLevelDetector::BatchDistance(const Matrix& augmented) const {
  const int64_t n = source_.rows();
  const int64_t m = augmented.rows();
  const int64_t d_aug = augmented.cols();
  std::vector<double> target(static_cast<size_t>(m));
  auto slice_w1 = [&](int64_t slice) {
    std::sort(target.begin(), target.end());
    return SortedQuantileW1(sorted_.data() + slice * n, n, target.data(), m);
  };
  double worst = 0.0;
  for (int64_t c = 0; c < d_aug; ++c) {
    for (int64_t r = 0; r < m; ++r) {
      target[static_cast<size_t>(r)] = augmented(r, c);
    }
    worst = std::max(worst, slice_w1(c));
  }
  for (int64_t p = 0; p < directions_.cols(); ++p) {
    const Matrix projected = Matmul(augmented, directions_.Col(p));
    std::copy(projected.data(), projected.data() + m, target.begin());
    worst = std::max(worst, slice_w1(d_aug + p));
  }
  return worst;
}

double OodLevelDetector::DistanceTo(const Matrix& target) const {
  SBRL_CHECK_EQ(target.cols(), source_.cols());
  SBRL_CHECK_GT(target.rows(), 0);
  const int64_t d_aug = directions_.rows();
  // A non-finite feature is maximally OOD, never averaged away: NaN
  // would vanish through std::max inside the sliced metric (and NaN
  // keys are not a valid ordering for its sorts).
  auto all_finite = [](const double* v, int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      if (!std::isfinite(v[i])) return false;
    }
    return true;
  };
  if (target.rows() == 1) {
    // One value per slice; no allocation for typical widths.
    constexpr int64_t kStackSlices = 256;
    const int64_t slices = d_aug + directions_.cols();
    double stack[kStackSlices] = {};
    std::vector<double> heap;
    double* t = stack;
    if (slices > kStackSlices) {
      heap.resize(static_cast<size_t>(slices));
      t = heap.data();
    }
    AugmentRow(target.data(), t);
    if (!all_finite(t, d_aug)) {
      return std::numeric_limits<double>::infinity();
    }
    return PointDistance(t);
  }
  const Matrix augmented = Augment(target);
  if (!all_finite(augmented.data(), augmented.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return BatchDistance(augmented);
}

double OodLevelDetector::LevelOf(const Matrix& target) const {
  const double distance = DistanceTo(target);
  const double excess = std::max(0.0, distance - null_q95_);
  return 1.0 - std::exp(-excess / null_scale_);
}

}  // namespace sbrl
