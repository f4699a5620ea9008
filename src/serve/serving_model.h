#ifndef SBRL_SERVE_SERVING_MODEL_H_
#define SBRL_SERVE_SERVING_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/precision.h"
#include "common/statusor.h"
#include "core/ood_detector.h"
#include "serve/model_format.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace serve {

/// Immutable scorer over an exported model: load once, share freely
/// across threads. The score path takes no locks, allocates no tape,
/// and mutates no member state — every forward runs the tape-free
/// value kernels (ops::AffineActValue / AffineBatchNormInferActValue)
/// over tensors frozen at construction, pinned to the exported ISA
/// choice, so ScoreOutcomes is bitwise identical to the fitted
/// estimator's PredictPotentialOutcomes. Each output row depends only
/// on its input row, which is what lets the micro-batcher coalesce
/// requests without changing any result bit (see MicroBatcher).
class ServingModel {
 public:
  /// Per-request scoring knobs.
  struct ScoreOptions {
    /// Stamp responses with the OOD detector's shift level (no-op when
    /// the model carries no detector).
    bool ood = true;
    /// Levels >= this threshold set the flagged bit.
    double ood_threshold = 0.5;
  };

  /// One scored request row.
  struct RowScore {
    /// Predicted potential outcome under control.
    double y0 = 0.0;
    /// Predicted potential outcome under treatment.
    double y1 = 0.0;
    /// Individual treatment effect y1 - y0.
    double ite = 0.0;
    /// Row-level OOD level in [0, 1] (0 when gating is off or the
    /// model has no detector).
    double ood_level = 0.0;
    /// True when ood_level >= the request's threshold.
    bool ood_flagged = false;
  };

  /// One scored request batch.
  struct BatchScore {
    /// (n x 2) potential outcomes: column 0 = y0_hat, column 1 =
    /// y1_hat; bitwise equal to PredictPotentialOutcomes.
    Matrix outcomes;
    /// Per-row treatment effects y1_hat - y0_hat.
    std::vector<double> ite;
    /// Population-level OOD level of the whole batch (0 when gating is
    /// off or the model has no detector).
    double ood_level = 0.0;
    /// True when ood_level >= the request's threshold.
    bool ood_flagged = false;
  };

  /// Builds a scorer from decoded model data, resolving every tensor
  /// name against the meta's architecture and shape-checking it.
  /// Returns InvalidArgument on a missing tensor, a shape mismatch, or
  /// invalid OOD state. When a detector rides along, its slice table
  /// is built and its row-level null distances are calibrated here
  /// through the detector's point path (see RowOodLevel).
  static StatusOr<ServingModel> FromData(ServingModelData data);

  /// LoadServingModel + FromData in one step.
  static StatusOr<ServingModel> Load(const std::string& path);

  /// Potential outcomes for each row of `x` -> (n x 2) matrix, column
  /// 0 = y0_hat, column 1 = y1_hat; binary outcomes are probabilities.
  /// Under the default f64 precision tier, bitwise identical to the
  /// exporting estimator's PredictPotentialOutcomes on the same rows,
  /// for any batching of the rows. Under Precision::kF32 (the
  /// SBRL_PRECISION=f32 knob, resolved once at load) the same forward
  /// runs in f32 storage and arithmetic over weights taken from the
  /// exported f32 section when present and narrowed from the f64
  /// tensors otherwise; only the final sigmoid / de-standardization
  /// runs in f64 on the widened head outputs. The f32 tier agrees with
  /// the f64 scorer to the per-method budgets in
  /// tests/precision_test.cc, never bitwise, and is deterministic per
  /// ISA level and batching-invariant like the f64 tier. Thread-safe
  /// without synchronization.
  Matrix ScoreOutcomes(const Matrix& x) const;

  /// The precision tier ScoreOutcomes routes through (resolved from
  /// SBRL_PRECISION once at construction; default f64).
  Precision precision() const { return precision_; }

  /// Scores a batch and stamps it with the detector's population-level
  /// shift verdict (OodLevelDetector::LevelOf over all of `x`).
  BatchScore Score(const Matrix& x, const ScoreOptions& options) const;
  /// Score with default options.
  BatchScore Score(const Matrix& x) const;

  /// Scores a batch with PER-ROW OOD stamping: outcomes are computed
  /// batch-wise (batching-invariant), but each row's OOD level is
  /// RowOodLevel of that row alone, so the stamp is independent of
  /// which other rows happened to share the batch — the invariant the
  /// micro-batcher's determinism contract needs.
  std::vector<RowScore> ScoreRows(const Matrix& x,
                                  const ScoreOptions& options) const;
  /// ScoreRows with default options.
  std::vector<RowScore> ScoreRows(const Matrix& x) const;

  /// Row-level OOD level in [0, 1] of a single request row (1 x d):
  /// the detector's distance of the one-row population to the source,
  /// renormalized against a null of single-source-row distances
  /// calibrated at load time (a one-row "population" sits at a
  /// point-mass distance from the source even in distribution, so the
  /// batch-level null would flag everything). Both the request and the
  /// calibration go through the detector's point path — a binary
  /// search per slice over its load-time sorted source values, within
  /// 1e-12 relative of the full max-sliced metric and allocation-free
  /// (see OodLevelDetector) — so the gate costs microseconds, about
  /// what the forward it guards costs. CHECK-fails without a detector.
  double RowOodLevel(const Matrix& row) const;

  /// Population-level OOD level of `x` (OodLevelDetector::LevelOf).
  /// CHECK-fails without a detector.
  double OodLevelOf(const Matrix& x) const;

  /// True when a fitted OOD detector was exported with the model.
  bool has_ood_detector() const { return detector_.has_value(); }

  /// Covariate dimension every request row must have.
  int64_t input_dim() const { return meta_.input_dim; }

  /// The decoded meta section (method name, config, ISA pin, ...).
  const ServingMeta& meta() const { return meta_; }

 private:
  /// One affine (+ optional frozen BatchNorm) + activation layer, at
  /// storage width T.
  template <typename T>
  struct Layer {
    BasicMatrix<T> w;  ///< (in x out) weight
    BasicMatrix<T> b;  ///< (1 x out) bias
    bool has_bn = false;          ///< BatchNorm folded into this layer
    BasicMatrix<T> gamma;         ///< (1 x out) BN scale
    BasicMatrix<T> beta;          ///< (1 x out) BN shift
    BasicMatrix<T> running_mean;  ///< (1 x out) frozen BN mean
    BasicMatrix<T> running_var;   ///< (1 x out) frozen BN variance
  };
  /// An MLP as a sequence of layers (empty for a degenerate stack).
  template <typename T>
  using Stack = std::vector<Layer<T>>;
  /// The exported network at one precision tier.
  template <typename T>
  struct Net {
    Stack<T> rep;    ///< TARNet/CFR representation ("rep")
    Stack<T> rep_c;  ///< DeR-CFR confounder stack ("C")
    Stack<T> rep_a;  ///< DeR-CFR adjustment stack ("A")
    Stack<T> body0;  ///< control head body ("heads.h0")
    Stack<T> body1;  ///< treated head body ("heads.h1")
    Layer<T> out0;   ///< control head output unit ("heads.h0.out")
    Layer<T> out1;   ///< treated head output unit ("heads.h1.out")
  };

  ServingModel() = default;

  /// Runs `stack` over `x` with the exported activation/BN settings.
  template <typename T>
  BasicMatrix<T> RunStack(const Stack<T>& stack,
                          const BasicMatrix<T>& x) const;
  /// The balanced representation of `x` (rep stack(s), normalization,
  /// DeR-CFR concat) — the input of both outcome heads.
  template <typename T>
  BasicMatrix<T> Representation(const Net<T>& net,
                                const BasicMatrix<T>& x) const;
  /// The (n x 2) potential outcomes of `net` on `x` (ScoreOutcomes
  /// after the tier's input cast).
  template <typename T>
  Matrix Outcomes(const Net<T>& net, const BasicMatrix<T>& x) const;

  ServingMeta meta_;
  // Only the tier resolved at load is built; the other stays empty.
  Net<double> net64_;
  Net<float> net32_;
  Precision precision_ = Precision::kF64;
  std::optional<OodLevelDetector> detector_;
  double row_null_q95_ = 0.0;
  double row_null_scale_ = 1.0;
};

}  // namespace serve
}  // namespace sbrl

#endif  // SBRL_SERVE_SERVING_MODEL_H_
