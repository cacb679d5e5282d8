// perfbench: the compiled half of the repository benchmark. run.py
// builds it, starts the serving processes, and calls one subcommand
// per workload phase; each subcommand prints a one-line JSON result
// (see common.h) as its last stdout line.
//
//   perfbench host
//   perfbench prepare-store --seed N --dir D
//   perfbench train --workload W --seed N --seconds S --trace 0|1
//                   --work D [--store D]
//   perfbench serve-checkpoint --seed N --out F
//   perfbench serve-load --workload W --seed N --seconds S --trace 0|1
//                        --port P --checkpoint F

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "harness/common.h"
#include "harness/workloads.h"
#include "io/json.h"
#include "tensor/simd/simd.h"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", key.c_str());
      std::exit(2);
    }
    kv_[key.substr(2)] = argv[++i];
  }
}

std::string Args::Str(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) {
    std::fprintf(stderr, "perfbench: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::int64_t Args::Int(const std::string& key) const {
  return std::atoll(Str(key).c_str());
}

std::int64_t Args::Int(const std::string& key, std::int64_t def) const {
  return Has(key) ? Int(key) : def;
}

double Args::Double(const std::string& key, double def) const {
  return Has(key) ? std::atof(Str(key).c_str()) : def;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double ProcessCpuSeconds(int pid) {
  std::FILE* f =
      std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return 0.0;
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // utime and stime are fields 14 and 15; fields 3 onwards follow the
  // parenthesised command name.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0.0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0.0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    errors_.push_back(what);
  }
}

void Result::Count(std::int64_t attempted, std::int64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    errors_.push_back(what + ": " + std::to_string(failed) + " of " +
                      std::to_string(attempted) + " failed");
  }
}

void Result::Info(const std::string& key, const std::string& value) {
  info_.push_back({key, value});
}

void Result::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_.push_back({key, buf});
}

void Result::Emit() const {
  using e2gcl::JsonValue;
  JsonValue root = JsonValue::Object();
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, vu] : metrics_) {
    JsonValue m = JsonValue::Object();
    // Non-finite values are emitted as null so run.py's self-check
    // reports them instead of the JSON layer rejecting the whole line.
    m.Set("value", std::isfinite(vu.first) ? JsonValue::Double(vu.first)
                                           : JsonValue::Null());
    m.Set("unit", JsonValue::Str(vu.second));
    metrics.Set(name, std::move(m));
  }
  root.Set("metrics", std::move(metrics));
  root.Set("attempted", JsonValue::Int(attempted_));
  root.Set("failed", JsonValue::Int(failed_));
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : errors_) errors.Append(JsonValue::Str(e));
  root.Set("errors", std::move(errors));
  JsonValue info = JsonValue::Object();
  for (const auto& [k, v] : info_) info.Set(k, JsonValue::Str(v));
  root.Set("info", std::move(info));
  std::printf("%s\n", e2gcl::DumpJson(root, /*indent=*/false).c_str());
  std::fflush(stdout);
}

namespace {

int Host() {
  Result r;
  r.Info("simd_backend", e2gcl::simd::BackendName());
  r.Emit();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <subcommand> [--key value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const perfbench::Args args(argc, argv, 2);
  if (cmd == "host") return perfbench::Host();
  if (cmd == "prepare-store") return perfbench::PrepareStore(args);
  if (cmd == "train") return perfbench::RunTrain(args);
  if (cmd == "serve-checkpoint") return perfbench::WriteServeCheckpoint(args);
  if (cmd == "serve-load") return perfbench::RunServeLoad(args);
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
