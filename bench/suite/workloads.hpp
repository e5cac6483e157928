// The benchmark's six workloads (README.md lists why each was chosen).
//
// A workload builds its inputs from the seed once, then runs units of
// work (a PageRank run, a BFS query, an insertion batch, a serving phase)
// until the time budget is spent, and checks every result against the
// serial references. Untraced runs
// alternate T-thread and 1-thread units and report the end-to-end
// metrics; traced runs alternate traced and untraced units at T threads
// and report the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gr::suite {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's files and the serving telemetry.
  std::string out_dir = ".";
  /// Edge-count scale of every generated input (1 = full size; the
  /// self-test shrinks inputs and device memory together).
  double scale = 1.0;
  /// T = min(4, nproc), the host thread count of the functional backend.
  std::uint32_t threads = 1;
};

struct Outcome {
  std::uint64_t attempted = 0;  // units run
  std::uint64_t failed = 0;     // units that threw or failed a check
  std::vector<std::string> errors;  // the first few failure messages
  MetricMap metrics;
};

const std::vector<std::string>& workload_names();

/// Every digit of `v` (%.17g), as the result and layer files carry it.
std::string json_number(double v);

Outcome run_workload(const Config& config);

}  // namespace gr::suite
