// gr_bench_suite — runs one benchmark workload and prints one JSON line.
//
//   gr_bench_suite --workload stream-pagerank --seed 1 --seconds 10
//                  [--trace] [--out DIR] [--scale S]
//
// The functional backend runs on T = min(4, nproc) host threads.
// The line carries the provenance (git SHA, build type, nproc, T, seed),
// the units attempted and failed, and the metrics: the end-to-end set,
// or with --trace the per-layer set (plus host_trace.<workload>.json and
// layers.<workload>.json in --out). bench/suite/run.py builds this
// binary, drives it and checks its output; see README.md.
#include <malloc.h>

#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "support/harness.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gr;
  // Peak RSS should depend on the input, not on allocator history.
  // glibc's adaptive mmap threshold moved it by up to 35% between runs of
  // one input (and a threshold pinned high, by 10% between seeds). A
  // fixed 128 KiB threshold returns every large buffer to the system when
  // it is freed, so peak RSS tracks peak live memory; each unit then
  // faults its buffers in afresh, as a process serving one query does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    suite::Config config;
    std::int64_t seed = 1;
    const std::uint32_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    config.threads = std::min(4u, nproc);
    util::Cli cli("gr_bench_suite", "runs one repository benchmark workload");
    cli.flag("workload", &config.workload, "workload name (README.md)")
        .flag("seed", &seed, "seed every input is generated from")
        .flag("seconds", &config.seconds, "measured time budget")
        .flag("trace", &config.trace,
              "per-layer run: host spans, layer files in --out")
        .flag("out", &config.out_dir, "directory for trace and telemetry files")
        .flag("scale", &config.scale,
              "edge-count scale of the inputs (self-test runs only)");
    if (!cli.parse(argc, argv)) return 0;
    GR_CHECK_MSG(seed >= 0, "--seed must be non-negative");
    config.seed = static_cast<std::uint64_t>(seed);

    const suite::Outcome outcome = suite::run_workload(config);

    std::string line = "{\"workload\": " + json_string(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"trace\": " + (config.trace ? "1" : "0") +
                       ", \"scale\": " + suite::json_number(config.scale) +
                       ", \"seconds\": " + suite::json_number(config.seconds) +
                       ", \"threads\": " + std::to_string(config.threads) +
                       ", \"nproc\": " + std::to_string(nproc) +
                       ", \"git_sha\": " + json_string(bench::build_git_sha()) +
                       ", \"build_type\": " + json_string(bench::build_type()) +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) +
                       ", \"errors\": [";
    for (std::size_t i = 0; i < outcome.errors.size(); ++i)
      line += (i ? ", " : "") + json_string(outcome.errors[i]);
    line += "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : outcome.metrics) {
      line += (first ? "" : ", ") + json_string(name) +
              ": {\"value\": " + suite::json_number(metric.value) +
              ", \"unit\": " + json_string(metric.unit) + "}";
      first = false;
    }
    line += "}}";
    std::cout << line << std::endl;
    return outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gr_bench_suite: " << e.what() << "\n";
    return 2;
  }
}
