#include "host_trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "util/common.hpp"

namespace gr::suite {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t HostTrace::open(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = now_seconds();
  span.end = span.start;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit_;
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void HostTrace::close(std::int64_t id) {
  if (id < 0) return;
  GR_CHECK_MSG(!open_.empty() && open_.back() == id,
               "host spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now_seconds();
}

void HostTrace::record(std::string_view name, double start, double end) {
  if (!enabled_) return;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  if (!spans_.empty()) {
    Span& last = spans_.back();
    if (last.parent == parent && last.unit == unit_ && last.name == name &&
        last.end == start) {
      last.end = end;
      return;
    }
  }
  spans_.push_back(Span{std::string(name), start, end, parent, unit_});
}

std::vector<double> HostTrace::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += spans_[i].end - spans_[i].start;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
  return self;
}

std::map<std::string, SpanTotals> HostTrace::by_name() const {
  const std::vector<double> self = self_times();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    t.total_s += spans_[i].end - spans_[i].start;
    t.self_s += self[i];
    ++t.count;
  }
  return out;
}

std::map<std::string, SpanTotals> HostTrace::by_layer() const {
  const std::vector<double> self = self_times();
  const auto layer_of = [](const std::string& name) {
    return name.substr(0, name.find('.'));
  };
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer = layer_of(spans_[i].name);
    SpanTotals& t = out[layer];
    t.self_s += self[i];
    ++t.count;
    // A layer's total counts each outermost span of that layer once.
    bool nested = false;
    for (std::int64_t p = spans_[i].parent; p >= 0 && !nested;
         p = spans_[static_cast<std::size_t>(p)].parent)
      nested = layer_of(spans_[static_cast<std::size_t>(p)].name) == layer;
    if (!nested) t.total_s += spans_[i].end - spans_[i].start;
  }
  return out;
}

void HostTrace::write_chrome(const std::string& path, int pid) const {
  std::ofstream os(path);
  GR_CHECK_MSG(os.good(), "cannot write host trace " << path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"traceEvents\": [\n";
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"host\"}}";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": 1",
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6, pid);
    os << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", " << buf
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"unit\": " << s.unit << "}}";
  }
  os << "\n]}\n";
}

void EngineSpanObserver::mark(const char* name) {
  if (!in_step_) return;
  const double t = now_seconds();
  trace_.record(name, last_, t);
  last_ = t;
}

void EngineSpanObserver::step_begin() {
  in_step_ = true;
  last_ = now_seconds();
}

void EngineSpanObserver::step_end(bool ran) {
  if (ran) mark("frontier.advance");
  in_step_ = false;
}

void EngineSpanObserver::on_iteration_begin(std::uint32_t, std::uint64_t) {
  mark("engine.plan");
}
void EngineSpanObserver::on_transfer_plan(std::uint32_t,
                                          const core::TransferPlan&) {
  mark("engine.plan");
}
void EngineSpanObserver::on_pass_begin(const core::Pass&, std::uint32_t) {
  mark("engine.plan");
}
void EngineSpanObserver::on_shard_begin(const core::Pass&, std::uint32_t) {
  mark("engine.decide");
}
void EngineSpanObserver::on_shard_enqueued(const core::Pass&, std::uint32_t,
                                           const core::ShardWork&) {
  mark("engine.issue");
}
void EngineSpanObserver::on_shard_residency(const core::Pass&,
                                            const core::ShardVisit&) {
  mark("engine.issue");
}
void EngineSpanObserver::on_shard_transfer(const core::Pass&,
                                           const core::TransferDecision&) {
  mark("engine.issue");
}
void EngineSpanObserver::on_pass_end(const core::Pass&, std::uint32_t) {
  mark("vgpu.drain");
}
void EngineSpanObserver::on_iteration_end(const core::IterationStats&) {
  mark("engine.feedback");
}

}  // namespace gr::suite
