// Host wall-clock spans for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around public calls
// into each layer and between ExecutionObserver callbacks, so the
// library itself is untouched. They stay in memory until the run ends;
// then the run writes them as a Chrome trace and folds them into
// per-layer totals and self times (a span's duration minus the part its
// child spans cover). A span's layer is its name up to the first '.'.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine/observer.hpp"

namespace gr::suite {

/// Seconds on the monotonic host clock.
double now_seconds();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  // index into spans(); -1 = top level
  std::uint64_t unit = 0;    // spans of one unit of work share this id
};

struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Subsequent spans belong to `unit` (0 = setup and checks).
  void set_unit(std::uint64_t unit) { unit_ = unit; }

  /// Opens a span nested in the innermost open one; returns its id, or
  /// -1 when tracing is off.
  std::int64_t open(std::string_view name);
  void close(std::int64_t id);

  /// Records a finished span under the innermost open span. A span that
  /// continues the previous sibling of the same name (no gap between
  /// them) extends it instead of adding a new one.
  void record(std::string_view name, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals and self times per span name and per layer.
  std::map<std::string, SpanTotals> by_name() const;
  std::map<std::string, SpanTotals> by_layer() const;

  /// Chrome trace-event JSON (complete "X" events under `pid`).
  void write_chrome(const std::string& path, int pid) const;

 private:
  std::vector<double> self_times() const;

  bool enabled_;
  std::uint64_t unit_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(HostTrace& trace, std::string_view name)
      : trace_(trace), id_(trace.open(name)) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  HostTrace& trace_;
  std::int64_t id_;
};

/// Splits one EngineJob::step() into spans by the observer callbacks
/// that bound each stretch of host work:
///
///   engine.plan      step entry .. first on_pass_begin (direction
///                    choice, clear kernel, transfer plan), and the
///                    stretch between two passes
///   engine.decide    .. on_shard_begin (per-shard work plan, transfer
///                    strategy, residency decision)
///   engine.issue     .. on_shard_transfer (uploads and kernel enqueue)
///   vgpu.drain       last shard .. on_pass_end (Device::synchronize:
///                    the simulator runs every copy and kernel body)
///   engine.feedback  .. on_iteration_end (frontier D2H, barrier, stats)
///   frontier.advance on_iteration_end .. step() returns
///
/// The stretches tile the step, so their sum is the step's wall time.
class EngineSpanObserver final : public core::ExecutionObserver {
 public:
  explicit EngineSpanObserver(HostTrace& trace) : trace_(trace) {}

  /// Brackets one step() call; `ran` is its return value. A step that
  /// ran no iteration records nothing.
  void step_begin();
  void step_end(bool ran);

  void on_iteration_begin(std::uint32_t, std::uint64_t) override;
  void on_transfer_plan(std::uint32_t, const core::TransferPlan&) override;
  void on_pass_begin(const core::Pass&, std::uint32_t) override;
  void on_shard_begin(const core::Pass&, std::uint32_t) override;
  void on_shard_enqueued(const core::Pass&, std::uint32_t,
                         const core::ShardWork&) override;
  void on_shard_residency(const core::Pass&,
                          const core::ShardVisit&) override;
  void on_shard_transfer(const core::Pass&,
                         const core::TransferDecision&) override;
  void on_pass_end(const core::Pass&, std::uint32_t) override;
  void on_iteration_end(const core::IterationStats&) override;

 private:
  void mark(const char* name);

  HostTrace& trace_;
  bool in_step_ = false;
  double last_ = 0.0;
};

}  // namespace gr::suite
