#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "baselines/reference/serial.hpp"
#include "core/algorithms/algorithms.hpp"
#include "core/algorithms/registry.hpp"
#include "core/dynamic.hpp"
#include "core/engine/job.hpp"
#include "core/engine/program_registry.hpp"
#include "core/engine/scheduler.hpp"
#include "core/multi_gpu.hpp"
#include "core/partition.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "host_trace.hpp"
#include "support/harness.hpp"
#include "support/paper_programs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace gr::suite {
namespace {

using graph::EdgeList;
using graph::VertexId;

// Fewest runs of a PageRank workload, even when the budget is spent.
constexpr std::size_t kMinRuns = 5;
// stream-bfs: distinct queries per round (a round takes about 11 s on 4
// cores).
constexpr std::uint32_t kBfsQueries = 10;
// serve-bfs: queries per phase (a round of both phases at both thread
// counts takes about 7 s), open-loop rate (simulated q/s), tenant slots,
// and the fused pack width of the batch phase. The rate keeps the open
// phase lightly loaded (a query alone takes about 5.4 ms): at 50-100 q/s
// queueing bursts move the median and tail latency by 15-30% from one
// seed to the next, too much for any bound.
constexpr std::uint32_t kServeQueries = 500;
constexpr double kServeRate = 25.0;
constexpr std::uint32_t kServeTenants = 4;
constexpr std::uint32_t kServePack = 4;
constexpr double kServeMemoryFactor = 0.5;
// Every query must agree bitwise across phases and thread counts; one in
// this many is also checked against reference::bfs_depths, which
// rebuilds its adjacency on every call.
constexpr std::uint32_t kServeReferenceStride = 8;
// Queries per timed segment of a serving phase.
constexpr std::uint32_t kServeSegment = 25;
// evolve-sssp: insertion batches whose simulated totals are reported,
// and edges per batch.
constexpr std::uint32_t kEvolveBatches = 24;
constexpr std::uint32_t kEvolveBatchEdges = 512;

// ---------------------------------------------------------------- inputs

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  return util::splitmix64(state);
}

unsigned scaled_rmat_scale(unsigned base, double scale) {
  // Shrink the vertex set with the edge count so the degree stays put.
  const long drop = std::lround(-std::log2(scale));
  return drop > 0 ? base - static_cast<unsigned>(drop) : base;
}

graph::EdgeId scaled_edges(graph::EdgeId base, double scale) {
  return static_cast<graph::EdgeId>(
      std::llround(static_cast<double>(base) * scale));
}

/// The uk-2002 recipe: a skewed web crawl, 2^18 vertices and 3.1M edges
/// (about 171.6 MB of engine footprint) at full scale.
EdgeList web_graph(std::uint64_t seed, double scale) {
  EdgeList g = graph::rmat(scaled_rmat_scale(18, scale),
                           scaled_edges(3'100'000, scale), seed,
                           graph::RmatOptions{.a = 0.63, .b = 0.16, .c = 0.16});
  g.randomize_weights(1.0f, 64.0f, derive(seed, 1));
  return g;
}

/// The kron_g500-logn20 recipe at bench_serving's default scale.
EdgeList kron_graph(std::uint64_t seed, double scale) {
  EdgeList g = graph::rmat(scaled_rmat_scale(14, scale),
                           scaled_edges(460'000, scale), seed);
  g.randomize_weights(1.0f, 64.0f, derive(seed, 1));
  return g;
}

std::uint64_t footprint(const EdgeList& g) {
  return graph::footprint_bytes(g.num_vertices(), g.num_edges());
}

/// The benches' 50 MB device, shrunk with the inputs.
vgpu::DeviceConfig bench_device(double scale) {
  return vgpu::DeviceConfig::k20c_scaled(scale / 96.0);
}

/// `count` seeded traversal sources with out-degree > 0; distinct when
/// the graph has enough of them.
std::vector<VertexId> pick_sources(const EdgeList& g, std::uint32_t count,
                                   std::uint64_t seed, bool distinct) {
  const std::vector<graph::EdgeId> out_deg = g.out_degrees();
  std::vector<std::uint8_t> taken(g.num_vertices(), 0);
  util::Rng rng(seed);
  std::vector<VertexId> sources;
  while (sources.size() < count) {
    const auto v = static_cast<VertexId>(rng.below(g.num_vertices()));
    if (out_deg[v] == 0 || (distinct && taken[v])) continue;
    taken[v] = 1;
    sources.push_back(v);
  }
  return sources;
}

VertexId top_degree_vertex(const EdgeList& g) {
  const std::vector<graph::EdgeId> out_deg = g.out_degrees();
  return static_cast<VertexId>(
      std::max_element(out_deg.begin(), out_deg.end()) - out_deg.begin());
}

/// Seeded Poisson arrival times at `rate` queries per simulated second.
std::vector<double> poisson_arrivals(std::uint32_t count, double rate,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> arrivals(count);
  double t = 0.0;
  for (double& arrival : arrivals) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    arrival = t;
  }
  return arrivals;
}

// ----------------------------------------------------------- statistics

double median(std::vector<double> v) {
  return util::percentile(std::move(v), 50.0);
}

double total(const std::vector<double>& v) {
  return util::mean(v) * static_cast<double>(v.size());
}

/// Nearest-rank percentile, q in (0, 1]: always one of the samples.
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// p95, or the highest percentile that leaves at least ten samples beyond
/// it where p95 would leave fewer, and never below the median: p95 of
/// 500 samples, p58 of 24. (Farther out, serve-bfs's tail moves by 20-30%
/// from one seed to the next.)
double tail(const std::vector<double>& v) {
  const auto n = static_cast<double>(v.size());
  return nearest_rank(v, std::clamp((n - 10.0) / n, 0.5, 0.95));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------- run state

/// One workload process: its samples, checks and trace.
class Bench {
 public:
  explicit Bench(const Config& c) : config(c), trace(c.trace), observer(trace) {}
  // Jobs hold the observer's address.
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  const Config& config;
  HostTrace trace;
  HostTrace untraced{false};
  EngineSpanObserver observer;
  Outcome out;

  // Host wall times, seconds.
  double generate_s = 0.0;
  std::vector<double> construct_s;  // engine construction at T threads
  std::vector<double> partition_s;  // PartitionedGraph::build
  std::vector<double> check_s;      // reference oracles
  // Untraced run: A = units at T threads, B = units at 1 thread.
  // Traced run:   A = traced units,      B = untraced units, both at T.
  std::vector<double> run_a;
  std::vector<double> run_b;

  // Simulated end-to-end results over the workload's fixed unit set.
  double sim_s = 0.0;
  std::uint64_t h2d_bytes = 0;
  double sim_qps = 0.0;
  double sim_p50_ms = 0.0;
  double sim_tail_ms = 0.0;

  // Per-layer values the workload knows directly, by metric name.
  std::map<std::string, double> layer;

  void set(const std::string& name, double value) { layer[name] = value; }

  void fail(const std::string& what) {
    ++out.failed;
    if (out.errors.size() < 8) out.errors.push_back(what);
  }

  /// Runs one unit of work: counts it as attempted and turns a throw or
  /// a failed check (false) into a failure.
  template <typename F>
  bool unit(const std::string& what, F&& body) {
    ++out.attempted;
    try {
      if (body()) return true;
      fail(what + ": result check failed");
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
    }
    return false;
  }

  /// Times one reference oracle call.
  template <typename F>
  auto reference(F&& oracle) {
    ScopedSpan span(trace, "check.reference");
    const double t0 = now_seconds();
    auto result = oracle();
    check_s.push_back(now_seconds() - t0);
    return result;
  }

  /// Starts the measured phase's clock.
  void start_clock() { measure_start_ = now_seconds(); }

  /// Whether to start another unit (or round) that is expected to take
  /// `expected` seconds: yes until the budget is spent, and always while
  /// fewer than `min_done` have run.
  bool budget_left(std::size_t done, std::size_t min_done,
                   double expected) const {
    if (done < min_done) return true;
    const double elapsed = now_seconds() - measure_start_;
    return elapsed + 0.5 * expected < config.seconds;
  }

  /// Thread count and tracing of the i-th alternating unit.
  std::uint32_t threads_for(std::size_t i) const {
    return config.trace || i % 2 == 0 ? config.threads : 1;
  }
  bool traced_for(std::size_t i) const { return config.trace && i % 2 == 0; }
  HostTrace& trace_for(bool traced) { return traced ? trace : untraced; }
  void sample(std::size_t i, double seconds) {
    (i % 2 == 0 ? run_a : run_b).push_back(seconds);
  }

  std::uint64_t next_unit() { return ++unit_id_; }

 private:
  double measure_start_ = 0.0;
  std::uint64_t unit_id_ = 0;
};

/// Generates the workload's input, timed.
EdgeList generate(Bench& b, const std::function<EdgeList()>& make) {
  EdgeList g;
  {
    ScopedSpan span(b.trace, "graph.generate");
    const double t0 = now_seconds();
    g = make();
    b.generate_s = now_seconds() - t0;
  }
  b.set("graph.vertices", g.num_vertices());
  b.set("graph.edges", static_cast<double>(g.num_edges()));
  return g;
}

/// Times a direct PartitionedGraph::build at `partitions` shards (for
/// workloads whose engine builds its plan out of the benchmark's reach).
void time_partition_build(Bench& b, const EdgeList& g,
                          std::uint32_t partitions) {
  ScopedSpan span(b.trace, "partition.build");
  const double t0 = now_seconds();
  const core::PartitionedGraph plan =
      core::PartitionedGraph::build(g, partitions);
  b.partition_s.push_back(now_seconds() - t0);
}

// ------------------------------------------------------------ job units

struct JobRun {
  core::ProgramRunResult result;
  double construct_s = 0.0;  // make_job, including the partition build
  double run_s = 0.0;        // begin .. finish
};

/// One staged engine run through the registry's public job API. A traced
/// unit times the partition build through EngineEnv::partition_provider
/// and splits the run by the observer callbacks.
JobRun run_job(Bench& b, const core::ProgramHandle& handle,
               const EdgeList& g, const core::ProgramSpec& spec,
               const core::EngineOptions& options, bool traced) {
  HostTrace& trace = b.trace_for(traced);
  core::EngineEnv env;
  if (traced) {
    trace.set_unit(b.next_unit());
    env.partition_provider = [&b](const EdgeList& edges,
                                  std::uint32_t partitions) {
      ScopedSpan span(b.trace, "partition.build");
      const double t0 = now_seconds();
      auto plan = std::make_shared<const core::PartitionedGraph>(
          core::PartitionedGraph::build(edges, partitions));
      b.partition_s.push_back(now_seconds() - t0);
      return plan;
    };
  }
  JobRun out;
  std::unique_ptr<core::EngineJob> job;
  {
    ScopedSpan unit(trace, "bench.unit");
    const double t0 = now_seconds();
    {
      ScopedSpan span(trace, "engine.init");
      job = handle.make_job(g, spec, options, env);
    }
    const double t1 = now_seconds();
    if (traced) job->core().set_observer(&b.observer);
    {
      ScopedSpan span(trace, "engine.begin");
      job->begin();
    }
    double last_step = 0.0;
    for (;;) {
      if (traced) b.observer.step_begin();
      last_step = now_seconds();
      const bool ran = job->step();
      if (traced) b.observer.step_end(ran);
      if (!ran) break;
    }
    job->finish();
    const double t2 = now_seconds();
    trace.record("engine.finish", last_step, t2);
    out.construct_s = t1 - t0;
    out.run_s = t2 - t1;
  }
  trace.set_unit(0);
  out.result = job->result(0);
  return out;
}

bool same_run(const core::ProgramRunResult& a,
              const core::ProgramRunResult& b) {
  return a.value_hash == b.value_hash &&
         a.report.total_seconds == b.report.total_seconds &&
         a.report.bytes_h2d == b.report.bytes_h2d;
}

/// |got - ref| <= tol * (1 + |ref|) everywhere (infinities must match).
template <typename T>
bool close_to(std::span<const double> got, const std::vector<T>& ref,
              double tol) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double r = static_cast<double>(ref[i]);
    if (std::isinf(r) || std::isinf(got[i])) {
      if (got[i] != r) return false;
      continue;
    }
    if (!(std::abs(got[i] - r) <= tol * (1.0 + std::abs(r)))) return false;
  }
  return true;
}

std::uint64_t depths_hash(const std::vector<std::uint32_t>& depths) {
  return core::fnv1a_bytes(depths.data(),
                           depths.size() * sizeof(std::uint32_t));
}

/// Adds run `r`'s counters and simulated busy times to `into`.
void add_report(core::RunReport& into, const core::RunReport& r) {
  into.iterations += r.iterations;
  into.total_seconds += r.total_seconds;
  into.memcpy_seconds += r.memcpy_seconds;
  into.kernel_seconds += r.kernel_seconds;
  into.bytes_h2d += r.bytes_h2d;
  into.kernels_launched += r.kernels_launched;
  into.memcpy_ops += r.memcpy_ops;
  into.partitions = r.partitions;
  into.cache_slots = std::max(into.cache_slots, r.cache_slots);
  into.cache_hits += r.cache_hits;
  into.cache_misses += r.cache_misses;
  into.cache_evictions += r.cache_evictions;
  into.bytes_h2d_saved += r.bytes_h2d_saved;
  into.cache_shared_hits += r.cache_shared_hits;
  core::TransferStats& t = into.transfer;
  t.explicit_shards += r.transfer.explicit_shards;
  t.explicit_bytes += r.transfer.explicit_bytes;
  t.compressed_shards += r.transfer.compressed_shards;
  t.compressed_bytes += r.transfer.compressed_bytes;
  t.pinned_shards += r.transfer.pinned_shards;
  t.pinned_bytes += r.transfer.pinned_bytes;
  t.managed_shards += r.transfer.managed_shards;
  t.managed_bytes += r.transfer.managed_bytes;
  t.skipped_shards += r.transfer.skipped_shards;
  t.skipped_bytes += r.transfer.skipped_bytes;
  into.history.insert(into.history.end(), r.history.begin(), r.history.end());
}

/// Per-layer counts of one engine run, or of `units` runs summed by
/// add_report (counts then become per-unit means).
void engine_layers(Bench& b, const core::RunReport& r, double units = 1.0) {
  double processed = 0.0;
  double skipped = 0.0;
  double active = 0.0;
  for (const core::IterationStats& it : r.history) {
    processed += it.shards_processed;
    skipped += it.shards_skipped;
    active += static_cast<double>(it.active_vertices);
  }
  const auto per_unit = [units](auto count) {
    return static_cast<double>(count) / units;
  };
  const core::TransferStats& t = r.transfer;
  b.set("partition.shards", r.partitions);
  b.set("engine.iterations", per_unit(r.iterations));
  b.set("engine.shard_visits", per_unit(processed));
  b.set("engine.cull_ratio", ratio(skipped, processed + skipped));
  b.set("frontier.active_total", per_unit(active));
  b.set("vgpu.kernels", per_unit(r.kernels_launched));
  b.set("vgpu.memcpy_ops", per_unit(r.memcpy_ops));
  b.set("vgpu.copy_share", ratio(r.memcpy_seconds, r.total_seconds));
  b.set("vgpu.kernel_share", ratio(r.kernel_seconds, r.total_seconds));
  b.set("transfer.explicit_shards", per_unit(t.explicit_shards));
  b.set("transfer.compressed_shards", per_unit(t.compressed_shards));
  b.set("transfer.pinned_shards", per_unit(t.pinned_shards));
  b.set("transfer.managed_shards", per_unit(t.managed_shards));
  b.set("transfer.skipped_shards", per_unit(t.skipped_shards));
  b.set("transfer.link_bytes",
        per_unit(t.explicit_bytes + t.compressed_bytes + t.pinned_bytes +
                 t.managed_bytes));
  b.set("cache.slots", r.cache_slots);
  b.set("cache.hits", per_unit(r.cache_hits));
  b.set("cache.misses", per_unit(r.cache_misses));
  b.set("cache.evictions", per_unit(r.cache_evictions));
  b.set("cache.hit_rate", r.cache_hit_rate());
  b.set("cache.bytes_saved", per_unit(r.bytes_h2d_saved));
  b.set("cache.shared_hits", per_unit(r.cache_shared_hits));
}

/// Simulated metrics of a workload whose units all simulate identically.
void repeated_unit_sim(Bench& b, double sim_seconds, std::uint64_t h2d) {
  b.sim_s = sim_seconds;
  b.h2d_bytes = h2d;
  b.sim_qps = ratio(1.0, sim_seconds);
  b.sim_p50_ms = sim_seconds * 1e3;
  b.sim_tail_ms = sim_seconds * 1e3;
}

// ------------------------------------------------------------ workloads

/// stream-pagerank / resident-pagerank: 50-iteration PageRank, every
/// shard every iteration; the device either streams (50 MB, P = 11) or
/// holds the whole graph (2x footprint).
void pagerank(Bench& b, bool resident) {
  const Config& c = b.config;
  const EdgeList g = generate(b, [&] { return web_graph(c.seed, c.scale); });
  bench::register_paper_programs();
  const core::ProgramHandle& handle =
      core::ProgramRegistry::global().at("paper/pagerank");
  core::EngineOptions options;
  options.device = bench_device(c.scale);
  if (resident) options.device.global_memory_bytes = 2 * footprint(g);
  const core::ProgramSpec spec;

  // Every run must match the first bitwise, at either thread count.
  std::optional<core::ProgramRunResult> first;
  b.start_clock();
  double expected = 0.0;
  for (std::size_t i = 0; b.budget_left(i, kMinRuns, expected); ++i) {
    options.threads = b.threads_for(i);
    b.unit("run " + std::to_string(i), [&] {
      JobRun r = run_job(b, handle, g, spec, options, b.traced_for(i));
      b.sample(i, r.run_s);
      if (options.threads == c.threads) b.construct_s.push_back(r.construct_s);
      expected = r.construct_s + r.run_s;
      if (first) return same_run(r.result, *first);
      first = std::move(r.result);
      return true;
    });
  }
  if (!first) return;
  const std::vector<float> ref = b.reference([&] {
    return baselines::reference::pagerank(g, bench::kPageRankIterations);
  });
  if (!close_to(std::span<const double>(first->values), ref, 2e-3))
    b.fail("pagerank deviates from reference::pagerank");
  repeated_unit_sim(b, first->report.total_seconds, first->report.bytes_h2d);
  engine_layers(b, first->report);
  b.set("engine.wall_per_step_ms",
        ratio(median(b.run_a) * 1e3, first->report.iterations));
}

/// stream-bfs: single BFS queries from seeded sources, one at a time,
/// with the hybrid transfer policy choosing each shard's delivery.
void stream_bfs(Bench& b) {
  const Config& c = b.config;
  const EdgeList g = generate(b, [&] { return web_graph(c.seed, c.scale); });
  bench::register_paper_programs();
  const core::ProgramHandle& handle =
      core::ProgramRegistry::global().at("paper/bfs");
  core::EngineOptions options;
  options.device = bench_device(c.scale);
  options.transfer_policy = "auto";
  const std::vector<VertexId> sources =
      pick_sources(g, kBfsQueries, derive(c.seed, 2), /*distinct=*/true);

  // A round runs each query twice in a row: at T threads, then at 1
  // thread (traced run: traced, then untraced at T). The first run of a
  // query fixes its answer and its simulated totals.
  std::vector<core::ProgramRunResult> firsts(sources.size());
  std::vector<bool> have(sources.size(), false);
  std::vector<double> query_ms;
  std::vector<double> iterations;
  core::RunReport totals;
  const auto query = [&](std::uint32_t q, std::uint32_t threads,
                         bool traced, std::vector<double>& samples) {
    options.threads = threads;
    b.unit("query " + std::to_string(q), [&] {
      const JobRun r = run_job(b, handle, g, core::ProgramSpec{sources[q]},
                               options, traced);
      samples.push_back(r.run_s);
      if (threads == c.threads) b.construct_s.push_back(r.construct_s);
      if (have[q]) return same_run(r.result, firsts[q]);
      have[q] = true;
      firsts[q] = r.result;
      query_ms.push_back(r.result.report.total_seconds * 1e3);
      iterations.push_back(r.result.report.iterations);
      add_report(totals, r.result.report);
      return true;
    });
  };

  b.start_clock();
  double round_s = 0.0;
  for (std::size_t round = 0; b.budget_left(round, 1, round_s); ++round) {
    const double t0 = now_seconds();
    for (std::uint32_t q = 0; q < sources.size(); ++q) {
      query(q, b.threads_for(0), b.traced_for(0), b.run_a);
      query(q, b.threads_for(1), b.traced_for(1), b.run_b);
    }
    round_s = now_seconds() - t0;
  }

  for (std::uint32_t q = 0; q < sources.size(); ++q) {
    if (!have[q]) continue;
    const std::uint64_t ref = b.reference([&] {
      return depths_hash(baselines::reference::bfs_depths(g, sources[q]));
    });
    if (ref != firsts[q].value_hash)
      b.fail("query " + std::to_string(q) +
             ": depths differ from reference::bfs_depths");
  }
  b.sim_s = totals.total_seconds;
  b.h2d_bytes = totals.bytes_h2d;
  b.sim_qps = ratio(static_cast<double>(query_ms.size()), b.sim_s);
  b.sim_p50_ms = nearest_rank(query_ms, 0.50);
  b.sim_tail_ms = tail(query_ms);
  engine_layers(b, totals, static_cast<double>(query_ms.size()));
  b.set("engine.wall_per_step_ms",
        ratio(median(b.run_a) * 1e3, median(iterations)));
}

/// JobScheduler::wait, retried. When every tenant has finished, pump()
/// idles the clock forward to the next arrival, but now + (arrival - now)
/// can round to just short of the arrival; pump() then admits nothing and
/// reports no progress, and wait() throws with the query still queued.
/// The next pump lands exactly on the arrival (README, "Findings").
const core::JobResult& wait_for(core::JobScheduler& sched, core::JobId id) {
  for (int attempt = 1;; ++attempt) {
    try {
      return sched.wait(id);
    } catch (const util::CheckError&) {
      if (sched.idle() || attempt == 3) throw;
    }
  }
}

/// serve-bfs: the JobScheduler on an out-of-memory device (memory factor
/// 0.5, P = 44, 4 tenant slots). The open phase submits queries one by
/// one with Poisson arrivals on the simulated clock; the batch phase
/// submits the same sources as closed-loop packs of 4 (fused W4).
void serve_bfs(Bench& b) {
  const Config& c = b.config;
  const EdgeList g = generate(b, [&] { return kron_graph(c.seed, c.scale); });
  algo::register_builtin_programs();
  const std::uint32_t queries = kServeQueries;
  const std::vector<VertexId> sources =
      pick_sources(g, queries, derive(c.seed, 2), /*distinct=*/false);
  const std::vector<double> arrivals =
      poisson_arrivals(queries, kServeRate, derive(c.seed, 3));

  core::EngineOptions options = bench::bench_engine_options();
  options.device.global_memory_bytes = static_cast<std::uint64_t>(
      static_cast<double>(footprint(g)) * kServeMemoryFactor);
  // bench_serving's partition count: a 1/W slice still affords two
  // streaming slots plus two cache lanes at the planner's 1.3x
  // shard-imbalance margin.
  options.partitions = static_cast<std::uint32_t>(
      std::ceil(1.3 * 4.0 * kServeTenants / (0.95 * kServeMemoryFactor)));
  options.sched_max_concurrent = kServeTenants;
  std::filesystem::create_directories(c.out_dir);
  const std::string telemetry =
      (std::filesystem::path(c.out_dir) / ("telemetry." + c.workload + ".ndjson"))
          .string();

  struct Phase {
    double wall_s = 0.0;  // median segment x segments (see below)
    double sim_s = 0.0;
    double p50_ms = 0.0;
    double tail_ms = 0.0;  // p95 of the phase's 500 queries
    double queue_share = 0.0;
    std::vector<std::uint64_t> hashes;
    core::SchedulerStats stats;
    core::RunReport totals;  // job reports summed, device-wide times
  };
  // open = true: one submit per query at its arrival; false: packs.
  const auto serve = [&](bool open, std::uint32_t threads, bool traced) {
    HostTrace& trace = b.trace_for(traced);
    if (traced) trace.set_unit(b.next_unit());
    ScopedSpan unit(trace, "bench.unit");
    core::EngineOptions o = options;
    o.threads = threads;
    o.telemetry_out = open ? telemetry : "";
    Phase p;
    const double t0 = now_seconds();
    std::unique_ptr<core::JobScheduler> sched;
    {
      ScopedSpan span(trace, "sched.construct");
      sched = std::make_unique<core::JobScheduler>(g, o);
    }
    const double t1 = now_seconds();
    if (threads == c.threads) b.construct_s.push_back(t1 - t0);
    std::vector<core::JobId> ids;
    {
      ScopedSpan span(trace, "sched.submit");
      if (open) {
        for (std::uint32_t q = 0; q < queries; ++q) {
          core::JobRequest request;
          request.program = "bfs";
          request.spec.source = sources[q];
          request.arrival_seconds = arrivals[q];
          ids.push_back(sched->submit(std::move(request)));
        }
      } else {
        for (std::uint32_t q = 0; q < queries; q += kServePack) {
          std::vector<core::JobRequest> pack;
          for (std::uint32_t k = q; k < std::min(queries, q + kServePack); ++k) {
            core::JobRequest request;
            request.program = "bfs";
            request.spec.source = sources[k];
            pack.push_back(std::move(request));
          }
          for (core::JobId id : sched->submit_batch(std::move(pack)))
            ids.push_back(id);
        }
      }
    }
    {
      // Waiting on every kServeSegment-th query splits the serving time
      // into segments (wait() pumps exactly as drain() does). The phase's
      // wall time is the median segment times the segment count, which a
      // burst of host interference moves less than the plain sum.
      ScopedSpan span(trace, "sched.drain");
      std::vector<double> segments;
      double last = t1;
      for (std::uint32_t q = kServeSegment; q <= queries; q += kServeSegment) {
        if (q < queries) {
          wait_for(*sched, ids[q - 1]);
        } else {
          for (core::JobId id : ids) wait_for(*sched, id);
          sched->drain();  // nothing left to run: checks and closes telemetry
        }
        const double t = now_seconds();
        segments.push_back(t - last);
        last = t;
      }
      p.wall_s = median(segments) * static_cast<double>(segments.size());
    }
    trace.set_unit(0);
    p.sim_s = sched->device().now();
    p.stats = sched->stats();
    // Arrival-to-finish latencies, one per query.
    std::vector<double> latency_ms;
    double queue_ms = 0.0;
    for (core::JobId id : ids) {
      const core::JobResult& r = sched->result(id);
      p.hashes.push_back(r.run.value_hash);
      latency_ms.push_back(r.latency_seconds() * 1e3);
      queue_ms += r.queue_seconds() * 1e3;
      // A fused pack's lanes share one report; count it once.
      if (r.lane == 0) add_report(p.totals, r.run.report);
    }
    p.p50_ms = nearest_rank(latency_ms, 0.50);
    p.tail_ms = tail(latency_ms);
    p.queue_share = ratio(queue_ms, total(latency_ms));
    // Tenants overlap on the shared device: take its totals for the
    // busy times and bytes rather than the sum of the job reports.
    const vgpu::DeviceStats dev = sched->device_totals();
    p.totals.bytes_h2d = dev.bytes_h2d;
    p.totals.memcpy_seconds = dev.memcpy_busy_seconds();
    p.totals.kernel_seconds = dev.kernel_busy_seconds;
    p.totals.total_seconds = p.sim_s;
    p.totals.partitions = o.partitions;
    return p;
  };

  // A round serves both phases with each setting (T / 1 thread, or
  // traced / untraced); the first round's T-thread answers are the
  // reference for the rest.
  Phase open_ref;
  Phase batch_ref;
  bool have_ref = false;
  b.start_clock();
  double round_s = 0.0;
  for (std::size_t round = 0; b.budget_left(round, 1, round_s); ++round) {
    const double t0 = now_seconds();
    for (std::size_t side = 0; side < 2; ++side) {
      Phase open;
      Phase batch;
      const bool open_ok = b.unit("open phase", [&] {
        open = serve(true, b.threads_for(side), b.traced_for(side));
        return !have_ref || open.hashes == open_ref.hashes;
      });
      const bool batch_ok = b.unit("batch phase", [&] {
        batch = serve(false, b.threads_for(side), b.traced_for(side));
        return !have_ref || batch.hashes == batch_ref.hashes;
      });
      if (!open_ok || !batch_ok) continue;
      b.sample(side, (open.wall_s + batch.wall_s) / (2.0 * queries));
      if (!have_ref) {
        have_ref = true;
        open_ref = std::move(open);
        batch_ref = std::move(batch);
      }
    }
    round_s = now_seconds() - t0;
  }
  if (!have_ref) return;

  for (std::uint32_t q = 0; q < queries; ++q) {
    if (open_ref.hashes[q] != batch_ref.hashes[q])
      b.fail("query " + std::to_string(q) +
             ": open and batch phases disagree");
    if (q % kServeReferenceStride != 0) continue;
    const std::uint64_t ref = b.reference([&] {
      return depths_hash(baselines::reference::bfs_depths(g, sources[q]));
    });
    if (open_ref.hashes[q] != ref)
      b.fail("query " + std::to_string(q) +
             ": depths differ from reference::bfs_depths");
  }

  core::RunReport totals = open_ref.totals;
  add_report(totals, batch_ref.totals);
  b.sim_s = totals.total_seconds;
  b.h2d_bytes = totals.bytes_h2d;
  b.sim_qps = ratio(queries, batch_ref.sim_s);
  b.sim_p50_ms = open_ref.p50_ms;
  b.sim_tail_ms = open_ref.tail_ms;
  const double runs = static_cast<double>(open_ref.stats.admitted +
                                          batch_ref.stats.admitted);
  engine_layers(b, totals, runs);
  const double steps =
      static_cast<double>(open_ref.stats.steps + batch_ref.stats.steps);
  b.set("engine.wall_per_step_ms",
        ratio(median(b.run_a) * 2.0 * queries * 1e3, steps));
  b.set("sched.steps", steps);
  b.set("sched.admitted", runs);
  b.set("sched.rewidens", static_cast<double>(open_ref.stats.rewidens +
                                              batch_ref.stats.rewidens));
  b.set("sched.fused_jobs", static_cast<double>(open_ref.stats.fused_jobs +
                                                batch_ref.stats.fused_jobs));
  b.set("sched.max_concurrent_seen",
        std::max(open_ref.stats.max_concurrent_seen,
                 batch_ref.stats.max_concurrent_seen));
  b.set("sched.queue_share", open_ref.queue_share);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(telemetry, ec);
  b.set("obs.telemetry_bytes", ec ? 0.0 : static_cast<double>(bytes));
  // The scheduler memoizes one plan per partition count; time one.
  time_partition_build(b, g, options.partitions);
}

/// evolve-sssp: DynamicSession<Sssp> over the web graph, a full solve
/// and then seeded batches of edge insertions, each re-converged
/// incrementally (and each re-partitioning the whole graph).
void evolve_sssp(Bench& b) {
  const Config& c = b.config;
  const EdgeList g = generate(b, [&] { return web_graph(c.seed, c.scale); });
  const VertexId source = top_degree_vertex(g);
  core::ProgramInstance<algo::Sssp> instance;
  instance.init_vertex = [source](VertexId v) {
    return v == source ? 0.0f : std::numeric_limits<float>::infinity();
  };
  instance.init_edge = [](float w) { return algo::Sssp::Weight{w}; };
  instance.frontier = core::InitialFrontier::single(source);
  instance.default_max_iterations = g.num_vertices() + 1;
  core::EngineOptions options;
  options.device = bench_device(c.scale);
  options.threads = 0;  // the benchmark sizes the shared pool per unit

  util::ThreadPool::set_shared_workers(c.threads - 1);
  core::DynamicSession<algo::Sssp> session(g, instance, options);
  std::vector<float> full_values;
  if (!b.unit("full solve", [&] {
        ScopedSpan span(b.trace, "dynamic.recompute_full");
        const double t0 = now_seconds();
        session.recompute_full();
        b.construct_s.push_back(now_seconds() - t0);
        full_values.assign(session.values().begin(), session.values().end());
        return true;
      }))
    return;
  const std::vector<float> ref_full = b.reference(
      [&] { return baselines::reference::sssp_distances(g, source); });
  const std::vector<double> full(full_values.begin(), full_values.end());
  if (!close_to(std::span<const double>(full), ref_full, 1e-3))
    b.fail("full solve deviates from reference::sssp_distances");

  util::Rng rng(derive(c.seed, 4));
  const VertexId n = g.num_vertices();
  std::vector<double> batch_ms;
  std::vector<double> batch_iters;
  core::RunReport totals;
  std::uint32_t partitions = 0;
  b.start_clock();
  double expected = 0.0;
  for (std::size_t i = 0; b.budget_left(i, kEvolveBatches, expected); ++i) {
    std::vector<core::EdgeInsertion> batch(kEvolveBatchEdges);
    for (core::EdgeInsertion& e : batch) {
      e.src = static_cast<VertexId>(rng.below(n));
      e.dst = static_cast<VertexId>((e.src + 1 + rng.below(n - 1)) % n);
      e.weight = static_cast<float>(rng.uniform(1.0, 64.0));
    }
    const bool traced = b.traced_for(i);
    util::ThreadPool::set_shared_workers(b.threads_for(i) - 1);
    b.unit("batch " + std::to_string(i), [&] {
      HostTrace& trace = b.trace_for(traced);
      if (traced) trace.set_unit(b.next_unit());
      core::RunReport rep;
      const double t0 = now_seconds();
      {
        ScopedSpan span(trace, "dynamic.add_edges");
        rep = session.add_edges(batch);
      }
      expected = now_seconds() - t0;
      trace.set_unit(0);
      b.sample(i, expected);
      partitions = rep.partitions;
      if (i >= kEvolveBatches) return true;
      batch_ms.push_back(rep.total_seconds * 1e3);
      batch_iters.push_back(rep.iterations);
      add_report(totals, rep);
      return true;
    });
  }
  util::ThreadPool::set_shared_workers(c.threads - 1);

  const std::vector<float> ref_final = b.reference([&] {
    return baselines::reference::sssp_distances(session.edges(), source);
  });
  const std::vector<double> final_values(session.values().begin(),
                                         session.values().end());
  if (!close_to(std::span<const double>(final_values), ref_final, 1e-3))
    b.fail("final batch deviates from reference::sssp_distances");

  const double batches = static_cast<double>(batch_ms.size());
  b.sim_s = totals.total_seconds;
  b.h2d_bytes = totals.bytes_h2d;
  b.sim_qps = ratio(batches, b.sim_s);
  b.sim_p50_ms = nearest_rank(batch_ms, 0.50);
  b.sim_tail_ms = tail(batch_ms);
  engine_layers(b, totals, batches);
  b.set("dynamic.batch_iters_mean", ratio(totals.iterations, batches));
  b.set("engine.wall_per_step_ms",
        ratio(median(b.run_a) * 1e3, median(batch_iters)));
  // DynamicSession builds its plan inside each batch; time the same
  // build directly on the grown graph.
  for (int k = 0; k < 2; ++k) time_partition_build(b, session.edges(), partitions);
}

/// multigpu-pagerank: the second engine loop (core/multi_gpu.hpp), two
/// 50 MB devices on one simulated clock with replica exchange.
void multigpu_pagerank(Bench& b) {
  const Config& c = b.config;
  const EdgeList g = generate(b, [&] { return web_graph(c.seed, c.scale); });
  const std::vector<graph::EdgeId> out_deg = g.out_degrees();
  core::ProgramInstance<algo::PageRank> instance;
  instance.init_vertex = [out_deg](VertexId v) {
    return algo::PageRank::Vertex{
        1.0f, out_deg[v] == 0 ? 0.0f : 1.0f / static_cast<float>(out_deg[v])};
  };
  instance.frontier = core::InitialFrontier::all();
  instance.default_max_iterations = bench::kPageRankIterations;
  core::MultiGpuOptions options;
  options.device = bench_device(c.scale);
  options.num_devices = 2;

  struct MgpuRun {
    core::MultiGpuReport report;
    std::uint64_t hash = 0;
    std::vector<double> ranks;
    double construct_s = 0.0;
    double run_s = 0.0;
  };
  const auto run = [&](std::uint32_t threads, bool traced) {
    HostTrace& trace = b.trace_for(traced);
    if (traced) trace.set_unit(b.next_unit());
    util::ThreadPool::set_shared_workers(threads - 1);
    MgpuRun out;
    {
      ScopedSpan unit(trace, "bench.unit");
      const double t0 = now_seconds();
      std::unique_ptr<core::MultiGpuEngine<algo::PageRank>> engine;
      {
        ScopedSpan span(trace, "mgpu.init");
        engine = std::make_unique<core::MultiGpuEngine<algo::PageRank>>(
            g, instance, options);
      }
      const double t1 = now_seconds();
      {
        ScopedSpan span(trace, "mgpu.run");
        out.report = engine->run();
      }
      out.construct_s = t1 - t0;
      out.run_s = now_seconds() - t1;
      const auto values = engine->vertex_values();
      out.hash = core::fnv1a_bytes(values.data(), values.size_bytes());
      out.ranks.reserve(values.size());
      for (const algo::PageRank::Vertex& v : values) out.ranks.push_back(v.rank);
    }
    trace.set_unit(0);
    return out;
  };
  const auto same = [](const MgpuRun& x, const MgpuRun& y) {
    return x.hash == y.hash && x.report.total_seconds == y.report.total_seconds &&
           x.report.bytes_h2d == y.report.bytes_h2d;
  };

  // Every run must match the first bitwise, at either thread count.
  std::optional<MgpuRun> first;
  std::vector<double> init_share;
  b.start_clock();
  double expected = 0.0;
  for (std::size_t i = 0; b.budget_left(i, kMinRuns, expected); ++i) {
    const std::uint32_t threads = b.threads_for(i);
    b.unit("run " + std::to_string(i), [&] {
      MgpuRun r = run(threads, b.traced_for(i));
      b.sample(i, r.run_s);
      if (threads == c.threads) {
        b.construct_s.push_back(r.construct_s);
        init_share.push_back(r.construct_s / (r.construct_s + r.run_s));
      }
      expected = r.construct_s + r.run_s;
      if (first) return same(r, *first);
      first = std::move(r);
      return true;
    });
  }
  util::ThreadPool::set_shared_workers(c.threads - 1);
  if (!first) return;
  const std::vector<float> ref = b.reference([&] {
    return baselines::reference::pagerank(g, bench::kPageRankIterations);
  });
  if (!close_to(std::span<const double>(first->ranks), ref, 2e-3))
    b.fail("multi-GPU pagerank deviates from reference::pagerank");

  const core::MultiGpuReport& r = first->report;
  repeated_unit_sim(b, r.total_seconds, r.bytes_h2d);
  core::RunReport as_run;  // the fields a multi-GPU report carries
  as_run.iterations = r.iterations;
  as_run.total_seconds = r.total_seconds;
  // Copy-engine time per device, so the share compares with one device's.
  as_run.memcpy_seconds = r.memcpy_seconds / r.num_devices;
  as_run.partitions = r.partitions;
  as_run.history = r.history;
  engine_layers(b, as_run);
  b.set("engine.wall_per_step_ms", ratio(median(b.run_a) * 1e3, r.iterations));
  b.set("mgpu.exchange_share", ratio(r.exchange_seconds, r.total_seconds));
  b.set("mgpu.init_share", median(init_share));
  for (int k = 0; k < 2; ++k) time_partition_build(b, g, r.partitions);
}

// ------------------------------------------------------------- metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The traced run's per-layer metrics, in BENCHMARK.json order. Layer
// times are shares of the traced units' host time, so a layer the
// workload never reaches reads 0 rather than a time.
constexpr MetricSpec kLayerMetrics[] = {
    {"graph.generate_s", "s"},
    {"graph.vertices", "count"},
    {"graph.edges", "count"},
    {"partition.build_s", "s"},
    {"partition.builds", "count"},
    {"partition.shards", "count"},
    {"engine.init_share", "fraction"},
    {"engine.begin_share", "fraction"},
    {"engine.plan_share", "fraction"},
    {"engine.decide_share", "fraction"},
    {"engine.issue_share", "fraction"},
    {"engine.feedback_share", "fraction"},
    {"engine.finish_share", "fraction"},
    {"engine.iterations", "count"},
    {"engine.shard_visits", "count"},
    {"engine.cull_ratio", "fraction"},
    {"engine.wall_per_step_ms", "ms"},
    {"vgpu.drain_share", "fraction"},
    {"vgpu.kernels", "count"},
    {"vgpu.memcpy_ops", "count"},
    {"vgpu.copy_share", "fraction"},
    {"vgpu.kernel_share", "fraction"},
    {"frontier.advance_share", "fraction"},
    {"frontier.active_total", "count"},
    {"transfer.explicit_shards", "count"},
    {"transfer.compressed_shards", "count"},
    {"transfer.pinned_shards", "count"},
    {"transfer.managed_shards", "count"},
    {"transfer.skipped_shards", "count"},
    {"transfer.link_bytes", "B"},
    {"cache.slots", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_rate", "fraction"},
    {"cache.bytes_saved", "B"},
    {"cache.shared_hits", "count"},
    {"sched.steps", "count"},
    {"sched.admitted", "count"},
    {"sched.rewidens", "count"},
    {"sched.fused_jobs", "count"},
    {"sched.max_concurrent_seen", "count"},
    {"sched.queue_share", "fraction"},
    {"dynamic.batch_iters_mean", "count"},
    {"mgpu.init_share", "fraction"},
    {"mgpu.exchange_share", "fraction"},
    {"obs.telemetry_bytes", "B"},
    {"check.reference_s", "s"},
    {"trace.run_s", "s"},
    {"trace.overhead", "fraction"},
};

/// Span names whose self time becomes a *_share metric.
constexpr std::pair<const char*, const char*> kShareSpans[] = {
    {"engine.init", "engine.init_share"},
    {"engine.begin", "engine.begin_share"},
    {"engine.plan", "engine.plan_share"},
    {"engine.decide", "engine.decide_share"},
    {"engine.issue", "engine.issue_share"},
    {"engine.feedback", "engine.feedback_share"},
    {"engine.finish", "engine.finish_share"},
    {"vgpu.drain", "vgpu.drain_share"},
    {"frontier.advance", "frontier.advance_share"},
};

/// Spans that tile a traced unit's begin..finish.
constexpr const char* kRunSpans[] = {
    "engine.begin",    "engine.plan",  "engine.decide",
    "engine.issue",    "engine.feedback", "engine.finish",
    "vgpu.drain",      "frontier.advance"};

void write_layers(Bench& b, const std::map<std::string, SpanTotals>& spans,
                  double coverage) {
  const Config& c = b.config;
  std::filesystem::create_directories(c.out_dir);
  const std::filesystem::path dir(c.out_dir);
  b.trace.write_chrome((dir / ("host_trace." + c.workload + ".json")).string(),
                       /*pid=*/2);
  std::ofstream os(dir / ("layers." + c.workload + ".json"));
  GR_CHECK_MSG(os.good(), "cannot write layers file in " << c.out_dir);
  const auto totals_json = [&](const std::map<std::string, SpanTotals>& m) {
    std::string s = "{";
    for (const auto& [name, t] : m) {
      if (s.size() > 1) s += ", ";
      s += "\"" + name + "\": {\"total_s\": " + json_number(t.total_s) +
           ", \"self_s\": " + json_number(t.self_s) +
           ", \"spans\": " + std::to_string(t.count) + "}";
    }
    return s + "}";
  };
  os << "{\"workload\": \"" << c.workload << "\", \"seed\": " << c.seed
     << ",\n \"traced_units\": " << b.run_a.size()
     << ", \"traced_run_s\": " << json_number(total(b.run_a))
     << ", \"run_coverage\": " << json_number(coverage)
     << ",\n \"layers\": " << totals_json(b.trace.by_layer())
     << ",\n \"spans\": " << totals_json(spans) << ",\n \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : b.out.metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << json_number(m.value);
    first = false;
  }
  os << "}}\n";
}

void finish_metrics(Bench& b) {
  MetricMap& m = b.out.metrics;
  if (!b.config.trace) {
    m["setup_s"] = {b.generate_s + median(b.construct_s), "s"};
    m["run_s"] = {median(b.run_a), "s"};
    m["run_1t_s"] = {median(b.run_b), "s"};
    m["sim_s"] = {b.sim_s, "s"};
    m["h2d_bytes"] = {static_cast<double>(b.h2d_bytes), "B"};
    m["sim_qps"] = {b.sim_qps, "1/s"};
    m["sim_p50_ms"] = {b.sim_p50_ms, "ms"};
    m["sim_tail_ms"] = {b.sim_tail_ms, "ms"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return;
  }
  for (const MetricSpec& spec : kLayerMetrics) m[spec.name] = {0.0, spec.unit};
  for (const auto& [name, value] : b.layer) {
    GR_CHECK_MSG(m.count(name), "undeclared per-layer metric " << name);
    m[name].value = value;
  }
  m["graph.generate_s"].value = b.generate_s;
  m["partition.build_s"].value = median(b.partition_s);
  m["partition.builds"].value = static_cast<double>(b.partition_s.size());
  m["check.reference_s"].value = total(b.check_s);
  m["trace.run_s"].value = median(b.run_a);
  m["trace.overhead"].value = ratio(median(b.run_a), median(b.run_b)) - 1.0;

  // Shares of the traced units' host time (construction plus run).
  double unit_s = 0.0;
  for (const Span& s : b.trace.spans())
    if (s.name == "bench.unit") unit_s += s.end - s.start;
  const std::map<std::string, SpanTotals> spans = b.trace.by_name();
  for (const auto& [span, metric] : kShareSpans) {
    const auto it = spans.find(span);
    if (it != spans.end()) m[metric].value = ratio(it->second.self_s, unit_s);
  }
  double covered = 0.0;
  for (const char* span : kRunSpans) {
    const auto it = spans.find(span);
    if (it != spans.end()) covered += it->second.self_s;
  }
  write_layers(b, spans, ratio(covered, total(b.run_a)));
}

}  // namespace

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stream-pagerank", "resident-pagerank", "stream-bfs",
      "serve-bfs",       "evolve-sssp",       "multigpu-pagerank"};
  return names;
}

Outcome run_workload(const Config& config) {
  GR_CHECK_MSG(std::find(workload_names().begin(), workload_names().end(),
                         config.workload) != workload_names().end(),
               "unknown workload '" << config.workload << "'");
  GR_CHECK_MSG(config.threads >= 1, "threads must be at least 1");
  GR_CHECK_MSG(config.scale > 0.0 && config.scale <= 1.0,
               "scale must be in (0, 1]");
  Bench b(config);
  const std::string& w = config.workload;
  if (w == "stream-pagerank") pagerank(b, /*resident=*/false);
  if (w == "resident-pagerank") pagerank(b, /*resident=*/true);
  if (w == "stream-bfs") stream_bfs(b);
  if (w == "serve-bfs") serve_bfs(b);
  if (w == "evolve-sssp") evolve_sssp(b);
  if (w == "multigpu-pagerank") multigpu_pagerank(b);
  finish_metrics(b);
  return std::move(b.out);
}

}  // namespace gr::suite
