#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "nn/inference.h"
#include "util/check.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace awmoe {
namespace perfbench {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, JsonNumber(value));
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonString(value));
}

JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  return AddRaw(key, value.str());
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& raw) {
  Key(key);
  body_ += raw;
  return *this;
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const int64_t rank = static_cast<int64_t>(std::ceil(q * n));
  const int64_t index = std::clamp<int64_t>(rank - 1, 0, sorted.size() - 1);
  return sorted[static_cast<size_t>(index)];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = PercentileSorted(samples, 0.50);
  summary.p99 = PercentileSorted(samples, 0.99);
  summary.max = samples.back();
  double total = 0.0;
  for (double s : samples) total += s;
  summary.mean = total / static_cast<double>(samples.size());
  if (summary.count > 10) {
    // The nearest-rank percentile q keeps ceil((1-q) n) - 1 samples
    // strictly beyond it; q = 1 - 11/n leaves ten.
    const double n = static_cast<double>(summary.count);
    summary.top_percentile = 100.0 * (1.0 - 11.0 / n);
    summary.top_value = samples[static_cast<size_t>(summary.count - 11)];
  }
  return summary;
}

JsonObject LatencySummary::ToJson() const {
  JsonObject out;
  out.Add("count", count)
      .Add("p50_ms", p50)
      .Add("p99_ms", p99)
      .Add("mean_ms", mean)
      .Add("max_ms", max)
      .Add("top_percentile", top_percentile)
      .Add("top_percentile_ms", top_value);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double HitRatio(int64_t hits, int64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

double LowerQuartile(std::vector<double> per_window) {
  std::sort(per_window.begin(), per_window.end());
  return PercentileSorted(per_window, 0.25);
}

double TrimmedMean(std::vector<double> per_window) {
  if (per_window.empty()) return 0.0;
  std::sort(per_window.begin(), per_window.end());
  const size_t trim = per_window.size() / 10;
  double sum = 0.0;
  for (size_t i = trim; i < per_window.size() - trim; ++i) sum += per_window[i];
  return sum / static_cast<double>(per_window.size() - 2 * trim);
}

ClosedLoopWindows::ClosedLoopWindows(double window_s, Clock::time_point start)
    : window_s_(window_s),
      window_start_(start),
      cpu_start_(ProcessCpuSeconds()) {}

void ClosedLoopWindows::Record(double latency_ms, Clock::time_point end,
                               double units) {
  latencies_.push_back(latency_ms);
  units_ += units;
  if (MillisBetween(window_start_, end) >= 1e3 * window_s_) Close(end);
}

void ClosedLoopWindows::Finish(Clock::time_point end) {
  if (p50_ms_.empty() && !latencies_.empty()) Close(end);
}

void ClosedLoopWindows::Close(Clock::time_point end) {
  const double cpu = ProcessCpuSeconds();
  const double ops = static_cast<double>(latencies_.size());
  p50_ms_.push_back(Median(latencies_));
  cpu_ms_per_op_.push_back(1e3 * (cpu - cpu_start_) / ops);
  units_per_s_.push_back(units_ / (MillisBetween(window_start_, end) / 1e3));
  latencies_.clear();
  units_ = 0.0;
  window_start_ = end;
  cpu_start_ = cpu;
}

std::vector<double> WindowP99s(const std::vector<double>& start_s,
                               const std::vector<double>& values,
                               double window_s, size_t min_count) {
  std::vector<double> p99s;
  std::vector<double> window;
  auto close = [&] {
    std::sort(window.begin(), window.end());
    p99s.push_back(PercentileSorted(window, 0.99));
    window.clear();
  };
  double window_end = window_s;
  for (size_t i = 0; i < values.size(); ++i) {
    if (start_s[i] >= window_end && window.size() >= min_count) close();
    while (start_s[i] >= window_end) window_end += window_s;
    window.push_back(values[i]);
  }
  // A trailing window short of min_count is dropped unless it is the
  // only one.
  if (!window.empty() && (p99s.empty() || window.size() >= min_count)) {
    close();
  }
  return p99s;
}

namespace {

bool SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() { Stop(); }

void CpuRotation::Stop() {
  if (cpus_.size() > 1) SetAffinity(cpus_);
  cpus_.clear();
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  SetAffinity({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

std::string CpuBrand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // Drop trailing NULs.
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "" : brand.substr(first);
  }
#endif
  return "unknown";
}

bool CpuHas(const char* feature) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (std::string(feature) == "avx2") return __builtin_cpu_supports("avx2");
  if (std::string(feature) == "fma") return __builtin_cpu_supports("fma");
  if (std::string(feature) == "avx512f") {
    return __builtin_cpu_supports("avx512f");
  }
#endif
  (void)feature;
  return false;
}

}  // namespace

JsonObject Fingerprint(int threads_used) {
  JsonObject out;
  out.Add("cpu", CpuBrand())
      .Add("nproc",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Add("avx2", CpuHas("avx2"))
      .Add("fma", CpuHas("fma"))
      .Add("avx512f", CpuHas("avx512f"))
      .Add("kernel_tier", ActiveKernels().name)
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("threads_used", static_cast<int64_t>(threads_used));
  return out;
}

double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < 5; ++i) {
    teardown();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }
  return Median(seconds);
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int64_t request, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<size_t>(span)].end_us = NowUs();
}

std::map<std::string, double> SpanRecorder::SelfTimesUs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] += (span.end_us - span.start_us) - child_us[i];
  }
  return self;
}

std::map<std::string, int64_t> SpanRecorder::Counts() const {
  std::map<std::string, int64_t> counts;
  for (const Span& span : spans_) ++counts[span.name];
  return counts;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_us\": " << JsonNumber(s.start_us)
        << ", \"end_us\": " << JsonNumber(s.end_us) << "}"
        << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"cpu_ms_per_req", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"nn.matmul_gflops", "GFLOP/s"},
      {"nn.sigmoid_us_per_row", "us"},
      {"models.score_us_per_row", "us"},
      {"models.gate_us_per_session", "us"},
      {"models.encode_us_per_session", "us"},
      {"models.tail_us_per_row", "us"},
      {"models.slate_us_per_slate", "us"},
      {"data.collate_us_per_row", "us"},
      {"serving.lease_us", "us"},
      {"serving.queue_wait_ms", "ms"},
      {"serving.service_ms", "ms"},
      {"serving.batch_requests_mean", "count"},
      {"serving.batch_items_mean", "count"},
      {"serving.score_cache_hit_ratio", "ratio"},
      {"serving.encoding_cache_hit_ratio", "ratio"},
      {"serving.gate_cache_hit_ratio", "ratio"},
      {"serving.cache_bytes", "bytes"},
      {"serving.publish_ms", "ms"},
      {"serving.post_swap_misses", "count"},
      {"serving.shed_ratio", "ratio"},
      {"serving.shard_imbalance", "ratio"},
      {"serving.retrieve_ms", "ms"},
      {"serving.rerank_ms", "ms"},
      {"mat.matmul_gflops", "GFLOP/s"},
      {"core.loss_forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"nn.optimizer_step_ms", "ms"},
      {"harness.gen_late_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

namespace {

void SetMetric(const std::vector<MetricSpec>& specs,
               std::map<std::string, double>* metrics,
               const std::string& name, double value) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) {
      (*metrics)[name] = value;
      return;
    }
  }
  AWMOE_CHECK(false) << "unknown metric " << name;
}

}  // namespace

void SetEndToEnd(RunResult* result, const std::string& name, double value) {
  SetMetric(EndToEndSpecs(), &result->end_to_end, name, value);
}

void SetPerLayer(RunResult* result, const std::string& name, double value) {
  SetMetric(PerLayerSpecs(), &result->per_layer, name, value);
}

}  // namespace perfbench
}  // namespace awmoe
