#include "layers.h"

#include "workloads.h"

namespace perfbench {

TimedBlockReader::TimedBlockReader(sbrl::DatasetBlockReader* inner)
    : inner_(inner) {}

sbrl::StatusOr<int64_t> TimedBlockReader::NextBlock(
    int64_t max_rows, sbrl::CausalDataset* block) {
  const Clock::time_point start = Clock::now();
  if (passes_.empty()) passes_.push_back(Pass{start});
  sbrl::StatusOr<int64_t> got = inner_->NextBlock(max_rows, block);
  Pass& pass = passes_.back();
  pass.read_seconds += SecondsSince(start);
  if (got.ok() && *got > 0) {
    ++pass.blocks;
    pass.rows += *got;
  }
  return got;
}

sbrl::Status TimedBlockReader::Reset() {
  passes_.push_back(Pass{Clock::now()});
  return inner_->Reset();
}

namespace {

// Multiply-adds of an MLP body: `layers` affine layers of width `width`
// fed by `in` inputs.
double StackMacs(int64_t in, int64_t layers, int64_t width) {
  double macs = 0.0;
  for (int64_t l = 0; l < layers; ++l) {
    macs += static_cast<double>(in) * static_cast<double>(width);
    in = width;
  }
  return macs;
}

}  // namespace

double ForwardFlops(const sbrl::serve::ServingMeta& meta, int64_t rows) {
  const sbrl::NetworkConfig& net = meta.network;
  const bool dercfr = meta.backbone == sbrl::BackboneKind::kDerCfr;
  // DeR-CFR runs two representation stacks and concatenates them.
  const int64_t stacks = dercfr ? 2 : 1;
  double macs = static_cast<double>(stacks) *
                StackMacs(meta.input_dim, net.rep_layers, net.rep_width);
  const int64_t head_in = stacks * net.rep_width;
  // Two heads: body plus a one-unit output layer each.
  macs += 2.0 * (StackMacs(head_in, net.head_layers, net.head_width) +
                 static_cast<double>(net.head_width));
  return 2.0 * static_cast<double>(rows) * macs;
}

void InitLayerMetrics(RunRecord* record) {
  static const char* const kLayers[][2] = {
      // fit
      {"nn.net_step_s", "s"},
      {"core.weight_step_s", "s"},
      {"stats.rff_cos_s", "s"},
      {"core.health_s", "s"},
      {"core.loop_other_s", "s"},
      {"common.lane_speedup_vanilla", "x"},
      {"common.lane_speedup_sbrl", "x"},
      {"common.lane_speedup_hap", "x"},
      {"tensor.matmul_us", "us"},
      {"tensor.matmul_mflop", "Mflop"},
      // stream
      {"data.read_s", "s"},
      {"data.read_share", "%"},
      {"data.blocks", "count"},
      {"data.rows", "count"},
      {"core.pass_s", "s"},
      {"core.ate_pass_s", "s"},
      {"core.wave_mb", "MiB"},
      // serve_online
      {"serve.ood_row_us", "us"},
      {"serve.forward_row_us", "us"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_tail_ms", "ms"},
      {"serve.batch_rows", "rows"},
      {"serve.late_tail_ms", "ms"},
      {"serve.load_s", "s"},
      // serve_bulk
      {"serve.forward_f64_ms", "ms"},
      {"serve.forward_f32_ms", "ms"},
      {"serve.ood_batch_ms", "ms"},
      {"tensor.forward_f64_gflop_per_s", "Gflop/s"},
      {"tensor.forward_f32_gflop_per_s", "Gflop/s"},
      // tracing overhead, every workload
      {"trace.setup_s_overhead_pct", "%"},
      {"trace.peak_rss_mb_overhead_pct", "%"},
      {"trace.rows_per_s_overhead_pct", "%"},
      {"trace.latency_ms_overhead_pct", "%"},
  };
  for (const auto& layer : kLayers) {
    record->layers[layer[0]] = {0.0, layer[1], 0};
  }
}

void SetLayer(RunRecord* record, const std::string& name, double value,
              int64_t samples) {
  Metric& metric = record->layers.at(name);
  metric.value = value;
  metric.samples = samples;
}

void RecordOverhead(const std::map<std::string, Metric>& untraced,
                    const std::map<std::string, Metric>& traced,
                    RunRecord* record) {
  for (const auto& [name, base] : untraced) {
    const auto it = traced.find(name);
    if (it == traced.end() || base.value == 0.0 || it->second.value == 0.0) {
      continue;
    }
    // Positive = the traced phase was worse. rows_per_s is the one
    // higher-is-better metric.
    const double ratio = name == "rows_per_s" ? base.value / it->second.value
                                              : it->second.value / base.value;
    SetLayer(record, "trace." + name + "_overhead_pct", 100.0 * (ratio - 1.0),
             1);
  }
}

}  // namespace perfbench
