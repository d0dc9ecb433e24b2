// Spans for the traced run: {name, start, end, parent, op} records in a
// preallocated array, on the monotonic clock, written out when the run
// ends. Recording never allocates: a full array drops further spans and
// counts them.

#ifndef EVEBENCH_TRACE_H_
#define EVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace evebench {

inline constexpr uint32_t kSetupOp = 0xffffffffu;

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  uint32_t op = 0;      // step index, or kSetupOp
};

class Tracer {
 public:
  Tracer(size_t capacity, bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
  }

  // Opens a span nested in the innermost open one; -1 when off or full.
  int32_t Begin(const char* name, uint32_t op) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), 0, open_, op});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }

  void End(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint64_t dropped_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint32_t op)
      : tracer_(tracer), index_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

// Per-name totals: count, summed duration, and self time (duration minus
// the time its child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, SpanTotals> Aggregate(
    const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    SpanTotals& totals = out[spans[i].name];
    ++totals.count;
    totals.total_ms += ms;
    totals.self_ms += ms > child_ms[i] ? ms - child_ms[i] : 0.0;
  }
  return out;
}

}  // namespace evebench

#endif  // EVEBENCH_TRACE_H_
