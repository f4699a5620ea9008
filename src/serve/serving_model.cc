#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "autodiff/ops.h"
#include "common/cpu.h"
#include "nn/net_step.h"

namespace sbrl {
namespace serve {

namespace {

template <typename T>
using TensorMap = std::unordered_map<std::string, BasicMatrix<T>>;
using MatrixMap = TensorMap<double>;

template <typename T>
TensorMap<T> IndexByName(std::vector<BasicNamedMatrix<T>> items) {
  TensorMap<T> map;
  map.reserve(items.size());
  for (BasicNamedMatrix<T>& item : items) {
    map.emplace(std::move(item.name), std::move(item.value));
  }
  return map;
}

/// Moves the tensor `name` out of `map`, requiring shape (rows x cols).
Status Take(MatrixMap* map, const std::string& name, int64_t rows,
            int64_t cols, Matrix* out) {
  auto it = map->find(name);
  if (it == map->end()) {
    return Status::InvalidArgument("serving model missing tensor: " + name);
  }
  if (it->second.rows() != rows || it->second.cols() != cols) {
    return Status::InvalidArgument(
        "serving model tensor " + name + " has shape " +
        it->second.ShapeString() + ", expected (" + std::to_string(rows) +
        " x " + std::to_string(cols) + ")");
  }
  *out = std::move(it->second);
  return Status::OK();
}

/// Take at the f32 tier: the f64 tensor is required and shape-checked
/// as above, then replaced by the exported f32 tensor of the same name
/// when `exported` holds one (so a round-tripped file scores the exact
/// bits that were written), else narrowed.
Status Take(MatrixMap* map, const std::string& name, int64_t rows,
            int64_t cols, MatrixF32* out, TensorMap<float>* exported) {
  Matrix ref;
  SBRL_RETURN_IF_ERROR(Take(map, name, rows, cols, &ref));
  if (exported != nullptr) {
    auto it = exported->find(name);
    if (it != exported->end()) {
      if (!it->second.same_shape(ref)) {
        return Status::InvalidArgument(
            "serving model f32 tensor " + name + " has shape " +
            it->second.ShapeString() + ", expected " + ref.ShapeString());
      }
      *out = std::move(it->second);
      exported->erase(it);
      return Status::OK();
    }
  }
  *out = MatrixCast<float>(ref);
  return Status::OK();
}

/// The f64 overload ignores the exported f32 tensors.
Status Take(MatrixMap* map, const std::string& name, int64_t rows,
            int64_t cols, Matrix* out, TensorMap<float>* /*exported*/) {
  return Take(map, name, rows, cols, out);
}

}  // namespace

StatusOr<ServingModel> ServingModel::FromData(ServingModelData data) {
  ServingModel model;
  model.meta_ = data.meta;
  model.precision_ = ResolvePrecision(Precision::kF64);
  const NetworkConfig& net = data.meta.network;
  const int64_t d = data.meta.input_dim;
  MatrixMap weights = IndexByName(std::move(data.weights));
  MatrixMap state = IndexByName(std::move(data.state));
  TensorMap<float> weights_f32 = IndexByName(std::move(data.weights_f32));

  // Builds the network at the resolved tier's width T. Mirrors Mlp's
  // module naming: layer i is "<prefix>.l<i>" with params .W/.b, its
  // BatchNorm "<prefix>.bn<i>" with params .gamma/.beta and state
  // .running_mean/.running_var. BatchNorm running statistics live in
  // the f64 state section only, so the f32 tier always narrows them.
  auto build = [&](auto* out) -> Status {
    using T = typename decltype(out->out0.w)::value_type;
    auto take_weight = [&](const std::string& name, int64_t rows,
                           int64_t cols, BasicMatrix<T>* m) {
      return Take(&weights, name, rows, cols, m, &weights_f32);
    };
    auto build_dense = [&](const std::string& name, int64_t in,
                           int64_t out_dim, Layer<T>* layer) -> Status {
      SBRL_RETURN_IF_ERROR(take_weight(name + ".W", in, out_dim, &layer->w));
      return take_weight(name + ".b", 1, out_dim, &layer->b);
    };
    auto build_stack = [&](const std::string& prefix, int64_t in_dim,
                           int64_t layers, int64_t width,
                           Stack<T>* stack) -> Status {
      stack->clear();
      for (int64_t i = 0; i < layers; ++i) {
        Layer<T> layer;
        SBRL_RETURN_IF_ERROR(build_dense(prefix + ".l" + std::to_string(i),
                                         i == 0 ? in_dim : width, width,
                                         &layer));
        if (net.batchnorm) {
          layer.has_bn = true;
          const std::string bn = prefix + ".bn" + std::to_string(i);
          SBRL_RETURN_IF_ERROR(take_weight(bn + ".gamma", 1, width,
                                           &layer.gamma));
          SBRL_RETURN_IF_ERROR(take_weight(bn + ".beta", 1, width,
                                           &layer.beta));
          SBRL_RETURN_IF_ERROR(Take(&state, bn + ".running_mean", 1, width,
                                    &layer.running_mean, nullptr));
          SBRL_RETURN_IF_ERROR(Take(&state, bn + ".running_var", 1, width,
                                    &layer.running_var, nullptr));
        }
        stack->push_back(std::move(layer));
      }
      return Status::OK();
    };

    int64_t rep_out = net.rep_width;
    if (data.meta.backbone == BackboneKind::kDerCfr) {
      SBRL_RETURN_IF_ERROR(build_stack("C", d, net.rep_layers, net.rep_width,
                                       &out->rep_c));
      SBRL_RETURN_IF_ERROR(build_stack("A", d, net.rep_layers, net.rep_width,
                                       &out->rep_a));
      rep_out = 2 * net.rep_width;
    } else {
      SBRL_RETURN_IF_ERROR(build_stack("rep", d, net.rep_layers,
                                       net.rep_width, &out->rep));
    }
    SBRL_RETURN_IF_ERROR(build_stack("heads.h0", rep_out, net.head_layers,
                                     net.head_width, &out->body0));
    SBRL_RETURN_IF_ERROR(build_stack("heads.h1", rep_out, net.head_layers,
                                     net.head_width, &out->body1));
    SBRL_RETURN_IF_ERROR(
        build_dense("heads.h0.out", net.head_width, 1, &out->out0));
    return build_dense("heads.h1.out", net.head_width, 1, &out->out1);
  };
  if (model.precision_ == Precision::kF32) {
    SBRL_RETURN_IF_ERROR(build(&model.net32_));
  } else {
    SBRL_RETURN_IF_ERROR(build(&model.net64_));
  }

  if (data.has_ood) {
    SBRL_ASSIGN_OR_RETURN(OodLevelDetector detector,
                          OodLevelDetector::FromState(data.ood));
    if (data.ood.source.cols() != d) {
      return Status::InvalidArgument(
          "serving model OOD detector dimension mismatch");
    }
    model.detector_.emplace(std::move(detector));
    // Row-level null calibration: the distance of a SINGLE source row
    // to the full source is large even in distribution (a point mass
    // never looks like a population), so per-row gating needs its own
    // null. Deterministic stride sample of source rows, each measured
    // against the source like a one-row request would be (through the
    // detector's point path, as requests are).
    const Matrix& source = data.ood.source;
    const int64_t n = source.rows();
    const int64_t k = std::min<int64_t>(64, n);
    std::vector<double> distances;
    distances.reserve(static_cast<size_t>(k));
    Matrix row(1, d);
    for (int64_t i = 0; i < k; ++i) {
      const int64_t r = i * n / k;
      for (int64_t c = 0; c < d; ++c) row(0, c) = source(r, c);
      distances.push_back(model.detector_->DistanceTo(row));
    }
    std::sort(distances.begin(), distances.end());
    const size_t q95 = static_cast<size_t>(
        0.95 * static_cast<double>(distances.size() - 1));
    model.row_null_q95_ = distances[q95];
    double mean = 0.0;
    for (double v : distances) mean += v;
    mean /= static_cast<double>(distances.size());
    model.row_null_scale_ = std::max(mean, 1e-9);
  }
  return model;
}

StatusOr<ServingModel> ServingModel::Load(const std::string& path) {
  SBRL_ASSIGN_OR_RETURN(ServingModelData data, LoadServingModel(path));
  return FromData(std::move(data));
}

template <typename T>
BasicMatrix<T> ServingModel::RunStack(const Stack<T>& stack,
                                      const BasicMatrix<T>& x) const {
  const ops::ActKind act = ToActKind(meta_.network.activation);
  BasicMatrix<T> h = x;
  for (const Layer<T>& layer : stack) {
    if (layer.has_bn) {
      h = ops::AffineBatchNormInferActValue(
          h, layer.w, layer.b, layer.gamma, layer.beta, layer.running_mean,
          layer.running_var, meta_.bn_eps, act);
    } else {
      h = ops::AffineActValue(h, layer.w, layer.b, act);
    }
  }
  return h;
}

template <typename T>
BasicMatrix<T> ServingModel::Representation(const Net<T>& net,
                                            const BasicMatrix<T>& x) const {
  if (meta_.backbone == BackboneKind::kDerCfr) {
    BasicMatrix<T> rep_c = RunStack(net.rep_c, x);
    BasicMatrix<T> rep_a = RunStack(net.rep_a, x);
    if (meta_.network.rep_normalization) {
      rep_c = ops::NormalizeRowsValue(rep_c);
      rep_a = ops::NormalizeRowsValue(rep_a);
    }
    return ops::ConcatColsValue(rep_c, rep_a);
  }
  BasicMatrix<T> rep = RunStack(net.rep, x);
  if (meta_.network.rep_normalization) rep = ops::NormalizeRowsValue(rep);
  return rep;
}

template <typename T>
Matrix ServingModel::Outcomes(const Net<T>& net,
                              const BasicMatrix<T>& x) const {
  const BasicMatrix<T> rep = Representation(net, x);
  const BasicMatrix<T> h0 = RunStack(net.body0, rep);
  const BasicMatrix<T> h1 = RunStack(net.body1, rep);
  const BasicMatrix<T> y0 = ops::AffineActValue(h0, net.out0.w, net.out0.b,
                                                ops::ActKind::kIdentity);
  const BasicMatrix<T> y1 = ops::AffineActValue(h1, net.out1.w, net.out1.b,
                                                ops::ActKind::kIdentity);

  // Post-processing runs in f64 for both tiers (the f32 head outputs
  // are widened first), so the tiers differ only by the forward.
  Matrix out(x.rows(), 2);
  for (int64_t i = 0; i < x.rows(); ++i) {
    double a = static_cast<double>(y0(i, 0));
    double b = static_cast<double>(y1(i, 0));
    if (meta_.binary_outcome) {
      // The estimator's literal sigmoid (not StableSigmoid): serving
      // must reproduce Predict bit for bit.
      a = 1.0 / (1.0 + std::exp(-a));
      b = 1.0 / (1.0 + std::exp(-b));
    } else {
      a = a * meta_.y_std + meta_.y_mean;
      b = b * meta_.y_std + meta_.y_mean;
    }
    out(i, 0) = a;
    out(i, 1) = b;
  }
  return out;
}

Matrix ServingModel::ScoreOutcomes(const Matrix& x) const {
  SBRL_CHECK_EQ(x.cols(), meta_.input_dim)
      << "request dimension does not match the exported model";
  // Pin the exported ISA choice exactly like PredictPotentialOutcomes
  // pins the estimator's, so both paths dispatch the same kernels (the
  // f32 tables are resolved per level too).
  ScopedThreadIsa isa_scope(meta_.isa);
  if (precision_ == Precision::kF32) {
    return Outcomes(net32_, MatrixCast<float>(x));
  }
  return Outcomes(net64_, x);
}

ServingModel::BatchScore ServingModel::Score(const Matrix& x) const {
  return Score(x, ScoreOptions());
}

std::vector<ServingModel::RowScore> ServingModel::ScoreRows(
    const Matrix& x) const {
  return ScoreRows(x, ScoreOptions());
}

ServingModel::BatchScore ServingModel::Score(
    const Matrix& x, const ScoreOptions& options) const {
  BatchScore score;
  score.outcomes = ScoreOutcomes(x);
  score.ite.reserve(static_cast<size_t>(x.rows()));
  for (int64_t i = 0; i < x.rows(); ++i) {
    score.ite.push_back(score.outcomes(i, 1) - score.outcomes(i, 0));
  }
  if (options.ood && detector_.has_value()) {
    score.ood_level = detector_->LevelOf(x);
    score.ood_flagged = score.ood_level >= options.ood_threshold;
  }
  return score;
}

std::vector<ServingModel::RowScore> ServingModel::ScoreRows(
    const Matrix& x, const ScoreOptions& options) const {
  const Matrix outcomes = ScoreOutcomes(x);
  const bool gate = options.ood && detector_.has_value();
  std::vector<RowScore> rows(static_cast<size_t>(x.rows()));
  Matrix row(1, x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    RowScore& r = rows[static_cast<size_t>(i)];
    r.y0 = outcomes(i, 0);
    r.y1 = outcomes(i, 1);
    r.ite = r.y1 - r.y0;
    if (gate) {
      for (int64_t c = 0; c < x.cols(); ++c) row(0, c) = x(i, c);
      r.ood_level = RowOodLevel(row);
      r.ood_flagged = r.ood_level >= options.ood_threshold;
    }
  }
  return rows;
}

double ServingModel::RowOodLevel(const Matrix& row) const {
  SBRL_CHECK(detector_.has_value()) << "model carries no OOD detector";
  SBRL_CHECK_EQ(row.rows(), 1);
  const double distance = detector_->DistanceTo(row);
  const double excess = std::max(0.0, distance - row_null_q95_);
  return 1.0 - std::exp(-excess / row_null_scale_);
}

double ServingModel::OodLevelOf(const Matrix& x) const {
  SBRL_CHECK(detector_.has_value()) << "model carries no OOD detector";
  return detector_->LevelOf(x);
}

}  // namespace serve
}  // namespace sbrl
