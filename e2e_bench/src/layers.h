// Per-layer replays for the traced run: a workload's own inputs pushed
// once through each layer's public entry point on its own --
// transform::TransformFrame, StreamEngine::Push, PredicateBank::
// EvaluateBatch, the fused MultiMatchOperator, the ShardedEngine and
// durability::EventLog::Append -- so each stage gets its own cost per
// event, measured where the work happens.

#ifndef EPL_E2E_BENCH_LAYERS_H_
#define EPL_E2E_BENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/gesture_definition.h"
#include "core/query_gen.h"
#include "kinect/skeleton.h"
#include "transform/transform.h"

namespace epl::e2e {

struct LayerInputs {
  /// Raw frames in arrival order, each with the session id it belongs to.
  std::vector<std::pair<int, const kinect::SkeletonFrame*>> feed;
  /// Every deployed base query as (session id, definition).
  std::vector<std::pair<int, const core::GestureDefinition*>> queries;
  size_t batch_size = 1;
  /// Shard workers for the ShardedEngine replay; 0 skips it (the fused
  /// operator is always replayed).
  int shard_workers = 0;
  /// Whether the workload writes a WAL (then EventLog::Append is replayed
  /// into `scratch_dir`).
  bool wal = false;
  std::string scratch_dir;
  transform::TransformConfig transform;
  core::QueryGenConfig query;
};

/// Nanoseconds per event unless named otherwise. A layer the workload does
/// not run reads 0.
struct LayerNumbers {
  double transform_ns = 0;
  double publish_ns = 0;
  double bank_eval_ns = 0;
  double memo_hit_ratio = 0;
  /// Fused operator per event minus the bank evaluation inside it: the
  /// arena sweep that advances every pattern over the window.
  double sweep_ns = 0;
  double shard_producer_ns = 0;
  double merge_deliver_ns = 0;
  double shard_busy_share = 0;
  double wal_append_ns = 0;
  /// Per query: GenerateQuery + CompileQuery of a learned definition.
  double compile_us = 0;
};

Result<LayerNumbers> MeasureLayers(const LayerInputs& inputs);

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_LAYERS_H_
