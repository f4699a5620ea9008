#ifndef SBRL_CORE_OOD_DETECTOR_H_
#define SBRL_CORE_OOD_DETECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Quantifies how far a target population's covariate distribution is
/// from the source (training) distribution — the module the paper's
/// conclusion proposes as future work ("incorporate a module that
/// measures the OOD level between the target domain and the source
/// domain").
///
/// Calibration: the detector bootstraps same-size resample pairs from
/// the source and records their sliced-Wasserstein distances, giving a
/// null distribution of "in-distribution" distances. A target
/// population's OOD level is the fraction by which its distance to the
/// source exceeds that null, squashed into [0, 1]:
///   level = 1 - exp(-max(0, d_target - q95_null) / scale_null).
/// 0 means statistically indistinguishable from the source; values
/// near 1 mean a shift many times larger than sampling noise.
///
/// Resident slice table: Fit/FromState project the augmented source
/// once onto every slice the max-sliced metric measures — the d_aug
/// coordinate axes, then the normalized `projections` directions drawn
/// from Rng(seed + 999) in draw order (near-zero norms skipped) — and
/// keep each slice's ascending-sorted source values, coarse prefix
/// sums (one per kPrefixStride sorted values), mean and mean absolute
/// deviation. The table replaces a cached copy of the augmented
/// source, so a query never re-projects or re-sorts the source:
///   - a one-row target is a point t per slice, where quantile-coupled
///     W1 reduces exactly to mean_i |s_i - t|; with k = #{s_i < t} and
///     S(k) the sum of the k smallest values that is
///     (t*k - S(k) + (S(n) - S(k)) - t*(n - k)) / n: one binary search
///     plus <= kPrefixStride / 2 adds per slice, no allocation. Slices
///     whose triangle-inequality bound |t - mean| + deviation cannot
///     reach the running max are skipped without changing the result.
///     Rows agree with MaxSlicedWasserstein1 within 1e-12 relative
///     (only the summation order differs);
///   - a multi-row target sorts only its own projections and couples
///     them with the stored slices through SortedQuantileW1, bitwise
///     identical to MaxSlicedWasserstein1 on the augmented source.
class OodLevelDetector {
 public:
  /// Calibration and metric knobs of the detector.
  struct Options {
    /// Bootstrap pairs used to calibrate the null distance
    /// distribution.
    int64_t calibration_rounds = 20;
    /// Random projections per sliced-Wasserstein evaluation.
    int64_t projections = 32;
    /// Random coordinate-product features appended before measuring.
    /// The paper's bias-rate environments flip feature *correlations*
    /// while keeping marginals fixed; quadratic features expose such
    /// shifts to the (max-)sliced metric. 0 disables.
    int64_t quadratic_features = 64;
    uint64_t seed = 17;
  };

  /// Calibrates on the source covariates (n x d, n >= 10).
  static StatusOr<OodLevelDetector> Fit(const Matrix& source,
                                        const Options& options);
  /// Same with default options.
  static StatusOr<OodLevelDetector> Fit(const Matrix& source) {
    return Fit(source, Options());
  }

  /// The complete fitted state of a detector — everything FromState
  /// needs to reconstruct it exactly (the slice table is recomputed
  /// deterministically, not stored). This is what the
  /// serving model format serializes so OOD gating at score time uses
  /// the very detector calibrated at training time.
  struct State {
    /// Calibration knobs the detector was fitted with.
    Options options;
    /// Raw source covariates (n x d) the detector was fitted on.
    Matrix source;
    /// Quadratic coordinate-product feature pairs, in draw order.
    std::vector<std::pair<int64_t, int64_t>> quad_pairs;
    /// (1 x d_aug) per-column source means for standardization.
    Matrix col_mean;
    /// (1 x d_aug) per-column source stddevs (floored at fit time).
    Matrix col_std;
    /// 95th percentile of the calibrated null distances.
    double null_q95 = 0.0;
    /// Scale (mean) of the calibrated null distances.
    double null_scale = 1.0;
  };

  /// Captures the fitted state verbatim (see State).
  State ExportState() const;

  /// Reconstructs a detector from an exported State. Validates shape
  /// consistency (col_mean/col_std must be 1 x (d + |quad_pairs|) with
  /// in-range pair indices, col_std positive, null_scale positive, the
  /// standardized source finite) and returns InvalidArgument on any
  /// mismatch. The reconstructed detector's DistanceTo/LevelOf are
  /// bitwise identical to the original's: its slice table is rebuilt
  /// from the stored source, statistics and options seed.
  static StatusOr<OodLevelDetector> FromState(const State& state);

  /// Raw max-sliced-Wasserstein distance from `target` to the source;
  /// +inf when the augmented target holds a NaN or +-Inf (checked
  /// before any projection or sort), so a corrupted request is never
  /// certified in-distribution. A one-row target takes the
  /// O((d_aug + projections) log n) point path, a larger one the
  /// bitwise-exact batch path (see the class comment).
  double DistanceTo(const Matrix& target) const;

  /// OOD level in [0, 1] (see class comment); exactly 1.0 for a
  /// non-finite target (DistanceTo is +inf).
  double LevelOf(const Matrix& target) const;

  /// 95th percentile of the calibrated null distances.
  double null_q95() const { return null_q95_; }
  /// Scale (mean) of the calibrated null distances.
  double null_scale() const { return null_scale_; }

 private:
  OodLevelDetector() = default;

  /// Sorted source values per stored prefix sum of a slice.
  static constexpr int64_t kPrefixStride = 32;

  /// Appends the configured quadratic features and standardizes every
  /// column by the source statistics.
  Matrix Augment(const Matrix& x) const;
  /// Augment of one row of source_.cols() values into `out`
  /// (d_aug values); the per-row kernel of Augment.
  void AugmentRow(const double* x, double* out) const;

  /// Builds the slice table from Augment(source_); InvalidArgument when
  /// a standardized source value is non-finite.
  Status BuildSlices(const Matrix& augmented);
  /// Prefix sums stored per slice: S(min(j * kPrefixStride, n)) for
  /// j = 0 .. n / kPrefixStride + 1, so the last one is S(n).
  int64_t PrefixSums() const { return source_.rows() / kPrefixStride + 2; }
  /// mean_i |s_i - t| over slice `slice`'s sorted source values.
  double PointW1(int64_t slice, double t) const;
  /// Max-sliced distance of one augmented point: `t` holds its d_aug
  /// coordinates followed by room for its projections (one value per
  /// slice).
  double PointDistance(double* t) const;
  /// Max-sliced distance of the augmented multi-row target.
  double BatchDistance(const Matrix& augmented) const;

  Matrix source_;  // raw source covariates
  Options options_;
  std::vector<std::pair<int64_t, int64_t>> quad_pairs_;
  Matrix col_mean_;  // (1 x d_aug) source statistics for standardization
  Matrix col_std_;   // (1 x d_aug)
  double null_q95_ = 0.0;
  double null_scale_ = 1.0;
  // Slice table: axes 0..d_aug-1, then one slice per kept direction.
  Matrix directions_;            // (d_aug x kept) unit directions
  std::vector<double> sorted_;   // slice-major, n sorted values each
  std::vector<double> prefix_;   // slice-major, PrefixSums() each
  std::vector<double> mean_;     // per slice, mean of its values
  std::vector<double> spread_;   // per slice, mean |s_i - mean|
};

}  // namespace sbrl

#endif  // SBRL_CORE_OOD_DETECTOR_H_
