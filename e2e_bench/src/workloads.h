// The benchmark's workloads. Each drives workflow::GestureRuntime through
// its public API only, runs to its end, checks its outputs and fills the
// result with the end-to-end metrics (untraced) or the per-layer metrics
// (traced). See README.md for what each workload stresses and why.

#ifndef EPL_E2E_BENCH_WORKLOADS_H_
#define EPL_E2E_BENCH_WORKLOADS_H_

#include "util.h"

namespace epl::e2e {

/// replay_fused (sharded = false) and replay_sharded (sharded = true).
void RunReplay(const RunConfig& config, bool sharded, RunResult* result);

/// interactive_durable.
void RunInteractive(const RunConfig& config, RunResult* result);

/// Where runs keep their scratch files (WAL, snapshots, spans), relative
/// to the working directory the benchmark runs in.
inline constexpr char kOutputDir[] = ".bench_out";

}  // namespace epl::e2e

#endif  // EPL_E2E_BENCH_WORKLOADS_H_
