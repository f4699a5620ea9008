#include "stats/sharded.h"

#include <cmath>
#include <utility>

#include "common/env.h"
#include "common/simd.h"
#include "stats/rff.h"
#include "tensor/linalg.h"

namespace sbrl {

ShardedOptions ResolveShardedOptions(const ShardedOptions& options) {
  ShardedOptions resolved = options;
  if (resolved.shard_rows <= 0) {
    resolved.shard_rows =
        ParseEnvInt64("SBRL_SHARD_ROWS", /*min_value=*/1, /*fallback=*/8192);
  }
  if (resolved.workers <= 0) {
    resolved.workers =
        ParseEnvInt64("SBRL_SHARD_WORKERS", /*min_value=*/1,
                      /*fallback=*/ThreadPool::GlobalParallelism());
  }
  // Env wins over the field (the SBRL_ISA-style override pattern);
  // resolution is idempotent, so already-resolved options pass through.
  resolved.precision = ResolvePrecision(options.precision);
  return resolved;
}

ColumnMoments CombineColumnMoments(ColumnMoments a, ColumnMoments b) {
  SBRL_CHECK(a.sum.same_shape(b.sum));
  a.rows += b.rows;
  a.sum += b.sum;
  a.sum_sq += b.sum_sq;
  return a;
}

StatusOr<ColumnMoments> ShardedColumnMoments(DatasetBlockReader& reader,
                                             const ShardedOptions& options) {
  const int64_t d = reader.dim();
  return ShardedReduceAtPrecision<ColumnMoments>(
      reader, options,
      [d](int64_t /*shard*/, int64_t /*slot*/, const auto& block) {
        // The running sums accumulate in f64 on both tiers: an
        // f32-staged covariate was rounded once at staging, and the
        // accumulation error does not grow with n.
        ColumnMoments m;
        m.rows = block.n();
        m.sum = Matrix(1, d);
        m.sum_sq = Matrix(1, d);
        for (int64_t i = 0; i < block.n(); ++i) {
          const auto* row = block.x.data() + i * d;
          for (int64_t j = 0; j < d; ++j) {
            const double v = row[j];
            m.sum(0, j) += v;
            m.sum_sq(0, j) += v * v;
          }
        }
        return m;
      },
      &CombineColumnMoments);
}

HsicRffMoments CombineHsicRffMoments(HsicRffMoments a, HsicRffMoments b) {
  SBRL_CHECK(a.cross.same_shape(b.cross));
  a.rows += b.rows;
  a.sum_a += b.sum_a;
  a.sum_b += b.sum_b;
  a.cross += b.cross;
  return a;
}

double FinalizeHsicRff(const HsicRffMoments& moments) {
  SBRL_CHECK_GT(moments.rows, 0);
  const int64_t k = moments.cross.cols();
  const double inv_n = 1.0 / static_cast<double>(moments.rows);
  double frob2 = 0.0;
  for (int64_t i = 0; i < k; ++i) {
    const double mean_a = moments.sum_a(0, i) * inv_n;
    for (int64_t j = 0; j < k; ++j) {
      const double c =
          moments.cross(i, j) * inv_n - mean_a * moments.sum_b(0, j) * inv_n;
      frob2 += c * c;
    }
  }
  return frob2;
}

namespace {

/// The RFF projection of one HSIC side at both storage widths: the
/// f64 projection and its one-time narrowing for the f32 tier.
struct SideProjection {
  RffProjection f64;
  MatrixF32 w32;
  MatrixF32 phi32;
};

/// RFF feature map of the selected column (covariate index or
/// kOutcomeColumn) of one f64 block: (rows x k).
Matrix BlockFeatures(const CausalDataset& block, int64_t col,
                     const SideProjection& proj) {
  if (col == kOutcomeColumn) {
    return ApplyRff(proj.f64, block.y, CosineMode::kExact);
  }
  return ApplyRffToColumn(proj.f64, block.x, col, CosineMode::kExact);
}

/// f32-tier feature map of the selected column of an f32-staged block:
/// the angle pass runs in f32 over the narrowed projection and the
/// sqrt(2)-cosine epilogue goes through the f32 sweep kernels — this
/// is the tier's point, so it takes the vectorized sweep rather than
/// the f64 path's kExact (the f32 tier's cross-ISA contract is
/// tolerance, not bitwise).
MatrixF32 BlockFeatures(const CausalBlockF32& block, int64_t col,
                        const SideProjection& proj) {
  const int64_t n = block.n();
  const int64_t kf = proj.w32.cols();
  const float* wd = proj.w32.data();
  const float* pd = proj.phi32.data();
  MatrixF32 out(n, kf);
  float* od = out.data();
  for (int64_t i = 0; i < n; ++i) {
    const float v = col == kOutcomeColumn
                        ? static_cast<float>(block.y(i, 0))
                        : block.x(i, col);
    float* orow = od + i * kf;
    for (int64_t f = 0; f < kf; ++f) orow[f] = v * wd[f] + pd[f];
  }
  ScaledCosRowsF32InPlace(od, n, kf, kf,
                          static_cast<float>(std::sqrt(2.0)),
                          CosineMode::kVectorized);
  return out;
}

/// Per-column sums of `m`, accumulated in f64 (1 x cols) in ascending
/// row order — for an f64 matrix exactly ColSum, for an f32 one the
/// "f32 storage, f64 accumulation" half of the HSIC f32 leaf.
template <typename T>
Matrix ColSumF64(const BasicMatrix<T>& m) {
  Matrix out(1, m.cols());
  double* od = out.data();
  const T* md = m.data();
  for (int64_t i = 0; i < m.rows(); ++i) {
    const T* row = md + i * m.cols();
    for (int64_t j = 0; j < m.cols(); ++j) od[j] += static_cast<double>(row[j]);
  }
  return out;
}

/// Both widths of the projection in counter-based slot `slot`.
SideProjection SampleSide(uint64_t draw_seed, int64_t num_features,
                          int64_t slot) {
  SideProjection side;
  side.f64 = SampleRffSlot(draw_seed, 1, num_features, slot);
  side.w32 = MatrixCast<float>(side.f64.w);
  side.phi32 = MatrixCast<float>(side.f64.phi);
  return side;
}

}  // namespace

StatusOr<double> ShardedHsicRff(DatasetBlockReader& reader, int64_t col_a,
                                int64_t col_b, int64_t num_features,
                                uint64_t draw_seed,
                                const ShardedOptions& options) {
  SBRL_CHECK_GT(num_features, 0);
  SBRL_CHECK(col_a == kOutcomeColumn ||
             (col_a >= 0 && col_a < reader.dim()));
  SBRL_CHECK(col_b == kOutcomeColumn ||
             (col_b >= 0 && col_b < reader.dim()));
  // Counter-based slot draws: both projections are pure functions of
  // (draw_seed, slot), never of the stream, so every shard sees the
  // same features no matter when or where it is processed.
  const SideProjection proj_a = SampleSide(draw_seed, num_features, 0);
  const SideProjection proj_b = SampleSide(draw_seed, num_features, 1);
  SBRL_ASSIGN_OR_RETURN(
      const HsicRffMoments reduced,
      ShardedReduceAtPrecision<HsicRffMoments>(
          reader, options,
          [&](int64_t /*shard*/, int64_t /*slot*/, const auto& block) {
            const auto phi = BlockFeatures(block, col_a, proj_a);
            const auto psi = BlockFeatures(block, col_b, proj_b);
            HsicRffMoments m;
            m.rows = block.n();
            // Feature sums accumulate in f64. Under the f32 tier the
            // cross products run on the f32 matmul tables WITHIN the
            // shard (<= shard_rows f32 dot terms, the tier's
            // documented budget) and widen once; all cross-shard
            // accumulation is f64 via the combine.
            m.sum_a = ColSumF64(phi);
            m.sum_b = ColSumF64(psi);
            m.cross = MatrixCast<double>(MatmulTransA(phi, psi));
            return m;
          },
          &CombineHsicRffMoments));
  return FinalizeHsicRff(reduced);
}

}  // namespace sbrl
