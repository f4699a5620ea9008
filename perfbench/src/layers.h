// Outside-in tracing of library layers: the benchmark times calls into
// each module's public functions and reads its diagnostics structs; the
// library itself records no spans for it.

#ifndef SBRL_PERFBENCH_LAYERS_H_
#define SBRL_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "data/streaming.h"
#include "measure.h"
#include "serve/model_format.h"

namespace perfbench {

/// Pass-through DatasetBlockReader decorator that times every NextBlock
/// call of the wrapped reader and counts blocks and rows. Each Reset
/// marks a pass boundary (the sharded trainer resets once per pass), so
/// pass wall times are observable from outside too. Never alters a row:
/// a fit over the decorator is bitwise the fit over the bare reader.
class TimedBlockReader : public sbrl::DatasetBlockReader {
 public:
  /// Wraps `inner` (not owned; must outlive the decorator).
  explicit TimedBlockReader(sbrl::DatasetBlockReader* inner);

  int64_t dim() const override { return inner_->dim(); }
  bool binary_outcome() const override { return inner_->binary_outcome(); }
  sbrl::StatusOr<int64_t> NextBlock(int64_t max_rows,
                                    sbrl::CausalDataset* block) override;
  sbrl::Status Reset() override;

  /// One pass over the stream: from a Reset to the next one.
  struct Pass {
    Clock::time_point start;
    /// Seconds spent inside the wrapped NextBlock during the pass.
    double read_seconds = 0.0;
    /// Non-empty blocks and rows returned during the pass.
    int64_t blocks = 0;
    int64_t rows = 0;
  };

  /// Passes in order. Reads before the first Reset open an implicit
  /// first pass.
  const std::vector<Pass>& passes() const { return passes_; }

 private:
  sbrl::DatasetBlockReader* inner_;
  std::vector<Pass> passes_;
};

/// Floating-point operations of one forward of `rows` rows through the
/// exported network in `meta`: 2 * rows * (sum of in x out over every
/// affine layer of the representation stack(s) and both heads).
/// Activations and normalizations are not counted.
double ForwardFlops(const sbrl::serve::ServingMeta& meta, int64_t rows);

}  // namespace perfbench

#endif  // SBRL_PERFBENCH_LAYERS_H_
