// In-memory span recorder for the traced run.
//
// A span has a name, a start, an end, the span that caused it (its
// parent) and the id of the operation it belongs to; spans of one
// operation share that id. Spans are recorded only on the benchmark's
// own thread, around its calls into each layer's public functions, and
// kept in memory until the run ends. Then they are reduced to per-layer
// self time (a span's duration minus the time its direct children cover)
// and written out as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;  ///< static-storage string literal
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index into the span list, -1 for a root
  uint64_t op;     ///< operation id shared by the spans of one operation
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Start a new operation; spans opened until the next call share its id.
  void beginOp() { ++op_; }

  /// RAII span. Costs one branch when the tracer is off.
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int32_t index_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Total self time per span name, in milliseconds.
  std::map<std::string, double> selfMs() const;

  /// Chrome trace-event JSON ("X" events plus the parent and op ids as
  /// args), with `meta` (already-encoded JSON object) under "metadata".
  bool writeChromeJson(const std::string& path, const std::string& meta) const;

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  int32_t open_ = -1;  ///< innermost open span
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
