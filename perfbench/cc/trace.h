// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times every layer from outside: a span wraps one call into
// a layer's public function. A span records its name ("<layer>/<call>"),
// start, end, parent span and recording thread. Spans stay in memory and
// are written once, at exit, as Chrome trace-event JSON (opens in
// chrome://tracing or Perfetto).
//
// A disabled Tracer records nothing; ScopedSpan still measures its own
// duration, so untraced runs time their calls through the same code.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One closed (or still open, end_ns < 0) span.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int parent = -1;  ///< Index of the enclosing span on the same thread.
  uint32_t thread = 0;
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records spans. Not thread-safe: only the benchmark's main thread opens
/// spans (serving threads report counts, not spans).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled.
  int Open(std::string name, int64_t start_ns);

  /// Closes span `index` (no-op for -1).
  void Close(int index, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer in milliseconds: each closed span's duration
  /// minus the part of its interval its child spans cover, summed over the
  /// spans whose name starts with "<layer>/". Only spans whose outermost
  /// ancestor is named `root` count (every span when `root` is empty).
  std::map<std::string, double> SelfMsByLayer(
      const std::string& root = "") const;

  /// Writes every span as Chrome trace-event JSON. Returns false when the
  /// file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Times a scope and, when the tracer is enabled, records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), start_ns_(NowNs()),
        index_(tracer->Open(std::move(name), start_ns_)) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns its duration in milliseconds;
  /// later calls return the same duration.
  double Stop();

 private:
  Tracer* tracer_;
  int64_t start_ns_;
  int index_;
  double ms_ = -1.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
