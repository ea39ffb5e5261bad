// End-to-end GestureRuntime benchmark: command-line entry point.
//
//   gesture_e2e --workload <replay_fused|replay_sharded|interactive_durable>
//               --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload from inputs generated from the seed, checks its
// outputs, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a spans file under .bench_out/). Exit code 0 only when every
// output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "util.h"
#include "workloads.h"

namespace {

using epl::e2e::RunConfig;
using epl::e2e::RunResult;

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(config->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      config->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && argc % 2 == 1;
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(result.ops.attempted),
              static_cast<unsigned long long>(result.ops.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const epl::e2e::Metric& metric = result.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: %s --workload <replay_fused|replay_sharded|"
                 "interactive_durable> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(epl::e2e::kOutputDir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", epl::e2e::kOutputDir,
                 error.message().c_str());
    return 2;
  }

  RunResult result;
  if (config.workload == "replay_fused") {
    epl::e2e::RunReplay(config, /*sharded=*/false, &result);
  } else if (config.workload == "replay_sharded") {
    epl::e2e::RunReplay(config, /*sharded=*/true, &result);
  } else if (config.workload == "interactive_durable") {
    epl::e2e::RunInteractive(config, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "e2e_bench: %llu output checks, %llu failed\n",
               static_cast<unsigned long long>(result.checks.evaluated()),
               static_cast<unsigned long long>(result.checks.failures()));
  PrintResult(result);
  return result.checks.ok() ? 0 : 1;
}
