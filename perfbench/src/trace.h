// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer of the DL predictor, recorded from the
// benchmark's own code: name ("<layer>.<call>"), start, end, the span
// that caused it, and the id of the operation it belongs to.  Spans stay
// in per-thread buffers while the run executes and are collected once at
// the end, so recording takes no lock.  Recording is off unless enabled;
// a disabled span costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();

struct span_record {
  const char* name = "";  ///< string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for an operation's root span
  std::uint64_t op = 0;      ///< operation id shared by all its spans
  std::uint32_t tid = 0;     ///< recording thread (1-based, per process)
};

/// Turns recording on or off.  Only toggle while no traced work runs.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Id of the innermost open span on this thread (0 when none).
[[nodiscard]] std::uint64_t current_span();
[[nodiscard]] std::uint64_t current_op();

/// RAII span around one call.  Becomes the parent of spans opened on this
/// thread while it lives.
class span {
 public:
  explicit span(const char* name);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  const char* name_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Root span of one operation: sets the operation id every nested span
/// (on this thread, and on threads that adopt it) carries.
class op_span {
 public:
  op_span(const char* name, std::uint64_t op);
  ~op_span();
  op_span(const op_span&) = delete;
  op_span& operator=(const op_span&) = delete;

 private:
  std::uint64_t saved_op_ = 0;
  const char* name_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Adopts a parent span and operation opened on another thread, so work
/// handed to a pool worker nests under the span that submitted it.
class adopt_parent {
 public:
  adopt_parent(std::uint64_t parent, std::uint64_t op);
  ~adopt_parent();
  adopt_parent(const adopt_parent&) = delete;
  adopt_parent& operator=(const adopt_parent&) = delete;

 private:
  std::uint64_t saved_parent_;
  std::uint64_t saved_op_;
};

/// Records a finished span as a child of this thread's current span —
/// for calls whose start and end are observed at two different points
/// (a PDE solve between a cache miss and the store of its value).
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);

/// Every span recorded since the last clear, from all threads.  Call only
/// while no traced work runs.
[[nodiscard]] std::vector<span_record> collect_spans();
void clear_spans();

/// Per-layer time: a span's self time is its duration minus the part of
/// it that its child spans cover.  A layer is the span-name prefix before
/// the first '.'.
struct layer_times {
  std::map<std::string, double> self_ns;   ///< per layer
  std::map<std::string, double> total_ns;  ///< per span name, full durations
  std::map<std::string, std::vector<double>> durations_ns;  ///< per span name
  /// Sum of self time over all non-root spans: the work the layers did.
  double busy_ns = 0.0;
};
[[nodiscard]] layer_times summarize(const std::vector<span_record>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track per recording thread), readable offline by Perfetto or
/// chrome://tracing.  `metadata` is a JSON object placed under
/// "otherData".  Throws std::runtime_error on I/O failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<span_record>& spans,
                        const std::string& metadata);

}  // namespace perfbench
