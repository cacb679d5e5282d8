#include "harness/trace.h"

#include <cstdio>

#include "io/json.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(tracer->spans_.size()) {
  Span s;
  s.name = name;
  s.parent = tracer->open_.empty()
                 ? -1
                 : static_cast<std::int64_t>(tracer->open_.back());
  s.start_ns = tracer->NowNs();
  tracer->spans_.push_back(std::move(s));
  tracer->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                              child_ns[i]);
  }
  return out;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  using e2gcl::JsonValue;
  JsonValue arr = JsonValue::Array();
  for (const Span& s : spans_) {
    JsonValue o = JsonValue::Object();
    o.Set("name", JsonValue::Str(s.name));
    o.Set("parent", JsonValue::Int(s.parent));
    o.Set("start_us",
          JsonValue::Double(1e-3 * static_cast<double>(s.start_ns)));
    o.Set("end_us", JsonValue::Double(1e-3 * static_cast<double>(s.end_ns)));
    arr.Append(std::move(o));
  }
  return e2gcl::WriteJsonFile(path, arr);
}

}  // namespace perfbench
