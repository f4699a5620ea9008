#ifndef SBRL_SERVE_MODEL_FORMAT_H_
#define SBRL_SERVE_MODEL_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/config.h"
#include "core/estimator.h"
#include "core/ood_detector.h"
#include "tensor/matrix.h"

namespace sbrl {
namespace serve {

/// Everything the scorer needs to know about a fitted estimator beyond
/// its raw tensors: which architecture to rebuild, how to post-process
/// head outputs, and which ISA the training run was pinned to.
struct ServingMeta {
  /// Backbone architecture the weights belong to.
  BackboneKind backbone = BackboneKind::kTarnet;
  /// Training framework (recorded for provenance; scoring is
  /// framework-independent once the weights are fixed).
  FrameworkKind framework = FrameworkKind::kVanilla;
  /// MethodName(backbone, framework) at export time.
  std::string method_name;
  /// Covariate dimension the network was built for.
  int64_t input_dim = 0;
  /// True: head outputs are logits, scored through a sigmoid. False:
  /// outputs are standardized values, de-standardized with
  /// y_mean/y_std.
  bool binary_outcome = true;
  /// Training-set outcome mean (continuous outcomes only).
  double y_mean = 0.0;
  /// Training-set outcome stddev (continuous outcomes only).
  double y_std = 1.0;
  /// Network architecture the weight names are resolved against.
  NetworkConfig network;
  /// ISA choice the estimator predicts under; the scorer pins the same
  /// choice so serving forwards are bitwise identical to Predict.
  IsaChoice isa = IsaChoice::kAuto;
  /// BatchNorm epsilon used by the inference normalization.
  double bn_eps = 1e-5;
};

/// One named tensor of the exported model (a trainable parameter or a
/// BatchNorm running statistic), keyed by the module naming scheme
/// ("rep.l0.W", "heads.h1.bn2.running_var", ...). T is the storage
/// width of the section it belongs to (float for the optional f32
/// weights section, see ServingModelData::weights_f32).
template <typename T>
struct BasicNamedMatrix {
  /// Unique module-scoped tensor name.
  std::string name;
  /// The tensor value.
  BasicMatrix<T> value;
};

/// A named f64 tensor (the weights and state sections).
using NamedMatrix = BasicNamedMatrix<double>;

/// In-memory image of one serving model file: the decoded sections of
/// the "SBRLMODL" format, still architecture-agnostic (ServingModel
/// resolves names against the meta's network config).
struct ServingModelData {
  /// Decoded meta section.
  ServingMeta meta;
  /// Trainable parameters in collection order.
  std::vector<NamedMatrix> weights;
  /// BatchNorm running statistics in collection order.
  std::vector<NamedMatrix> state;
  /// True when a fitted OOD detector rode along in the file.
  bool has_ood = false;
  /// The exported detector state (meaningful only when has_ood).
  OodLevelDetector::State ood;
  /// True when the optional f32 weights section was exported/loaded.
  /// The f64 weights stay the source of truth; the f32 copies exist so
  /// the f32 serving tier scores the exact narrowed tensors that were
  /// written, independent of the loader's own narrowing.
  bool has_f32 = false;
  /// Trainable parameters narrowed to f32, in collection order
  /// (meaningful only when has_f32).
  std::vector<BasicNamedMatrix<float>> weights_f32;
};

/// The on-disk format version SaveServingModel writes. Bump on any
/// layout change; LoadServingModel rejects other versions with
/// FailedPrecondition (no silent cross-version reinterpretation).
/// v2: adds the optional f32 weights section (tag 5) for the f32
/// serving tier.
constexpr uint32_t kServingFormatVersion = 2;

/// Serializes `data` to `path` atomically via the shared sectioned
/// codec (common/serial.h): magic "SBRLMODL", u32 version, CRC32-
/// trailed sections, tmp+rename commit. Returns Internal on I/O
/// failure (fault site "serve/write" injects one).
Status SaveServingModel(const ServingModelData& data,
                        const std::string& path);

/// Reads and validates a model written by SaveServingModel. Returns
/// NotFound when `path` does not exist, InvalidArgument when it is not
/// a serving model (bad magic), FailedPrecondition on a format version
/// mismatch, and Internal on truncation, a CRC mismatch, an unknown
/// section tag, or missing required sections (fault site "serve/read"
/// injects a failure).
StatusOr<ServingModelData> LoadServingModel(const std::string& path);

/// Captures a fitted estimator (and optionally a fitted OOD detector)
/// as a ServingModelData: parameter values via Backbone::CollectParams,
/// BatchNorm running statistics via CollectStateMatrices, and the
/// method/config/outcome metadata scoring needs. When `include_f32` is
/// true the weights are additionally narrowed into the optional f32
/// section (see ServingModelData::weights_f32). Returns
/// FailedPrecondition when `estimator` has not been fitted.
StatusOr<ServingModelData> ExportServingData(
    HteEstimator& estimator, const OodLevelDetector* ood_detector,
    bool include_f32 = false);

/// ExportServingData + SaveServingModel in one step. `include_f32`
/// adds the optional f32 weights section to the file.
Status ExportServingModel(HteEstimator& estimator,
                          const OodLevelDetector* ood_detector,
                          const std::string& path, bool include_f32 = false);

}  // namespace serve
}  // namespace sbrl

#endif  // SBRL_SERVE_MODEL_FORMAT_H_
