// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, request id, thread). Spans are
// recorded only around the benchmark's own calls into each layer's public
// functions; nothing inside the program is instrumented. Each thread
// appends to its own buffer, so recording takes no lock on the hot path.
// Nothing is recorded unless Enable() ran; the untraced run pays one
// branch per span. The spans are written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< a string literal
  int64_t start_ns = 0;        ///< steady clock
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span in the same thread
  uint64_t request_id = 0;
  int thread = 0;
};

/// Per span name: how many, total duration and self time (duration minus
/// the part covered by child spans), in nanoseconds.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanMs() const;
};

namespace trace {

void Enable();
bool Enabled();

/// Opens a span on the calling thread; returns its handle (-1 if off).
int64_t Begin(const char* name, uint64_t request_id = 0);
void End(int64_t handle);

/// Every span recorded so far, merged over threads and aggregated.
std::map<std::string, SpanTotals> Totals();

/// Spans not recorded because a thread reached its cap.
int64_t Dropped();

/// Writes every span as one JSON object per line.
bool WriteJsonLines(const std::string& path);

}  // namespace trace

/// RAII span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request_id = 0)
      : handle_(trace::Begin(name, request_id)) {}
  ~ScopedSpan() { trace::End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
