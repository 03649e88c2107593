#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t nanosSince(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin)
      .count();
}

}  // namespace

std::size_t SpanRecorder::open(std::string name, std::int64_t item, std::uint64_t calls) {
  Span span;
  span.name = std::move(name);
  span.parent = openStack_.empty() ? -1 : static_cast<std::int64_t>(openStack_.back());
  span.item = item;
  span.calls = calls;
  span.startNs = nanosSince(origin_);
  spans_.push_back(std::move(span));
  openStack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  if (openStack_.empty() || openStack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[index].endNs = nanosSince(origin_);
  openStack_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) childNs[static_cast<std::size_t>(span.parent)] += span.endNs - span.startNs;
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SpanTotals& t = totals[span.name];
    const std::int64_t duration = span.endNs - span.startNs;
    t.spans += 1;
    t.calls += span.calls;
    t.totalS += static_cast<double>(duration) * 1e-9;
    t.selfS += static_cast<double>(duration - childNs[i]) * 1e-9;
  }
  return totals;
}

bool SpanRecorder::writeChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Names are benchmark-chosen identifiers (no quotes or backslashes).
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,\"parent\":%lld,"
                 "\"item\":%lld,\"calls\":%llu}}",
                 i == 0 ? "" : ",", span.name.c_str(), static_cast<double>(span.startNs) * 1e-3,
                 static_cast<double>(span.endNs - span.startNs) * 1e-3, i,
                 static_cast<long long>(span.parent), static_cast<long long>(span.item),
                 static_cast<unsigned long long>(span.calls));
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
