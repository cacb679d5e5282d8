// In-memory span recorder for the traced (--trace 1) runs. Spans are
// recorded by the harness around calls into the library's public
// functions; nothing inside src/ is instrumented by it.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/common.h"

namespace perfbench {

/// Single-threaded span tree: name, start, end and parent of every
/// span, kept until WriteJson(). A layer's self time is its duration
/// minus the time its child spans cover.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Summed self seconds per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// Summed wall seconds per span name (children included).
  std::map<std::string, double> TotalSeconds() const;
  /// Writes every span as {"name", "parent", "start_us", "end_us"}.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::int64_t NowNs() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
