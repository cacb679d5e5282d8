// Shared helpers of the perfbench harness: argument parsing, order
// statistics, and the one-line JSON result every subcommand prints.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `--key value` pairs after the subcommand. Unknown keys are the
/// caller's business; a missing required key exits 2.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool Has(const std::string& key) const { return kv_.count(key) != 0; }
  std::string Str(const std::string& key) const;
  std::int64_t Int(const std::string& key) const;
  std::int64_t Int(const std::string& key, std::int64_t def) const;
  double Double(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// utime + stime of process `pid` in seconds (0 when unreadable). On a
/// virtual machine this excludes steal time.
double ProcessCpuSeconds(int pid);

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// What one subcommand measured and checked. Printed by Emit() as the
/// last stdout line; run.py merges the parts of a workload and
/// validates the union against BENCHMARK.json.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One checked operation: counts as attempted, and as failed (with
  /// `what` recorded) when `ok` is false.
  void Check(bool ok, const std::string& what);
  /// Bulk form for operations counted elsewhere (e.g. requests).
  void Count(std::int64_t attempted, std::int64_t failed,
             const std::string& what);
  /// Free-form context (host, configuration) for the log.
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  void Emit() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
