#ifndef SBRL_STATS_IPM_H_
#define SBRL_STATS_IPM_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/random.h"

namespace sbrl {

/// Integral Probability Metric family used by the Balancing Regularizer
/// (paper Eq. 3-4). All functions measure the distance between the row
/// distributions of `a` (n x d) and `b` (m x d).

/// Squared linear MMD: ||mean(a) - mean(b)||^2 (the "mmd2_lin" of the
/// CFR reference implementation).
double LinearMmd2(const Matrix& a, const Matrix& b);

/// Weighted squared linear MMD under per-group sample weights
/// (normalized internally).
double WeightedLinearMmd2(const Matrix& a, const Matrix& wa, const Matrix& b,
                          const Matrix& wb);

/// Squared RBF-kernel MMD (biased V-statistic).
double RbfMmd2(const Matrix& a, const Matrix& b, double bandwidth);

/// Weighted squared RBF-kernel MMD under per-group weights.
double WeightedRbfMmd2(const Matrix& a, const Matrix& wa, const Matrix& b,
                       const Matrix& wb, double bandwidth);

/// Sliced 1-Wasserstein distance: expectation over `num_projections`
/// random directions of the 1-D W1 distance between projected samples.
/// Non-differentiable; used as an evaluation-side IPM.
double SlicedWasserstein1(const Matrix& a, const Matrix& b,
                          int64_t num_projections, Rng& rng);

/// W1 between two ascending-sorted 1-D samples (n and m values) via
/// quantile coupling on a common grid of max(n, m) quantiles — the
/// per-slice kernel of both sliced metrics below, exposed so callers
/// that keep one side pre-sorted reproduce them bit for bit.
double SortedQuantileW1(const double* sorted_a, int64_t n,
                        const double* sorted_b, int64_t m);

/// Max-sliced 1-Wasserstein: the maximum projected W1 over the d
/// coordinate axes plus `num_projections` random directions. Far more
/// sensitive than the mean-sliced variant when only a few coordinates
/// shift (e.g. the paper's unstable block V), which is what the OOD
/// level detector needs.
double MaxSlicedWasserstein1(const Matrix& a, const Matrix& b,
                             int64_t num_projections, Rng& rng);

}  // namespace sbrl

#endif  // SBRL_STATS_IPM_H_
