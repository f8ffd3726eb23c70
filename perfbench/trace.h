// Bench-side span recorder for the traced run of kbench.
//
// Spans are recorded from the benchmark's own code, around the public library
// calls it makes (the library itself is not instrumented). Each span carries a
// name, start and end on the monotonic clock, the span that was open when it
// started (its parent) and the id of the operation it belongs to. Spans are
// kept in memory and written out once, at the end of the run, as Chrome
// trace-event JSON that any trace viewer opens offline.
//
// Granularity is per layer call (an engine build, one AssignBlock, the Add
// loop of one cluster), never per series pair, so recording stays cheap next
// to the work it brackets; the traced run reports what it costs as
// trace.overhead_frac.

#ifndef KSHAPE_PERFBENCH_TRACE_H_
#define KSHAPE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a root span
    int op;      // operation id, -1 outside any operation
  };

  Tracer() : epoch_(Clock::now()) {}

  // Operation id stamped on spans opened from now on.
  void set_op(int op) { op_ = op; }

  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Now(), 0, parent, op_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span (its duration minus the part its children
  // cover; children never overlap on this single-threaded recorder), summed
  // per (operation, span name), in seconds.
  std::map<int, std::map<std::string, double>> SelfSecondsByOp() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<int, std::map<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
      out[s.op][s.name] += static_cast<double>(self) * 1e-9;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds) of the spans
  // of operations [0, max_ops) and of spans outside any operation. Returns
  // false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, int max_ops) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.op >= max_ops) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"op\":%d}}",
                   first ? "" : ",", s.name, s.start_ns * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.op);
      first = false;
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing, so one code path serves the
// traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // KSHAPE_PERFBENCH_TRACE_H_
