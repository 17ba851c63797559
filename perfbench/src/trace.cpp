#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Span::Span(Tracer& t, const char* name) {
  if (!t.enabled_) return;
  tracer_ = &t;
  index_ = static_cast<int32_t>(t.spans_.size());
  t.spans_.push_back({name, nowNs(), 0, t.open_, t.op_});
  t.open_ = index_;
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  SpanRecord& r = tracer_->spans_[static_cast<size_t>(index_)];
  r.end_ns = nowNs();
  tracer_->open_ = r.parent;
}

std::map<std::string, double> Tracer::selfMs() const {
  // Children of one span run one after another on the recording thread,
  // so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

bool Tracer::writeChromeJson(const std::string& path,
                             const std::string& meta) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n", meta.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}\n",
                 i ? "," : "", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
