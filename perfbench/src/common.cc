#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace tupelo::perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--write-expected") {
      args->write_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--bin-dir") {
      args->bin_dir = value;
    } else if (flag == "--expected") {
      args->expected_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0) {
    std::fprintf(stderr, "perfbench: --workload and --seconds > 0 needed\n");
    return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<double> OpTimes::BestMs(size_t k) const {
  std::vector<double> best;
  for (std::vector<double> s : samples_) {
    if (s.empty()) continue;
    const size_t n = std::min(k, s.size());
    std::partial_sort(s.begin(), s.begin() + n, s.end());
    double sum = 0;
    for (size_t i = 0; i < n; ++i) sum += s[i];
    best.push_back(sum / static_cast<double>(n));
  }
  return best;
}

std::vector<double> OpTimes::MedianMs() const {
  std::vector<double> medians;
  for (const std::vector<double>& s : samples_) {
    if (!s.empty()) medians.push_back(Median(s));
  }
  return medians;
}

double SumSeconds(const std::vector<double>& ms) {
  double total = 0;
  for (double x : ms) total += x;
  return total / 1e3;
}

namespace {

double CpuMs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

// SpeedGauge's reference computation: about 1 ms of thread CPU time.
uint64_t ReferenceWork() {
  std::vector<std::string> keys;
  keys.reserve(2048);
  for (uint64_t i = 0; i < 2048; ++i) {
    keys.push_back("key/" + std::to_string(Mix(i) % 100000));
  }
  std::unordered_map<std::string, uint64_t> counts;
  for (const std::string& k : keys) ++counts[k];
  std::sort(keys.begin(), keys.end());
  uint64_t h = 0;
  for (const std::string& k : keys) h = Mix(h ^ counts[k] ^ k.size());
  std::vector<uint64_t> v(8192);
  for (size_t i = 0; i < v.size(); ++i) v[i] = Mix(h ^ i);
  std::sort(v.begin(), v.end());
  return h ^ v[v.size() / 2];
}

}  // namespace

void SpeedGauge::Probe() {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = ThreadCpuMs();
    volatile uint64_t sink = ReferenceWork();
    (void)sink;
    const double ms = ThreadCpuMs() - start;
    if (rep == 0 || ms < best) best = ms;
  }
  last_ms_ = best;
  last_at_ = Clock::now();
  probe_ms_.push_back(best);
}

void SpeedGauge::ProbeIfDue() {
  if (probe_ms_.empty() || MillisSince(last_at_) >= kPeriodMs) Probe();
}

size_t OpTimes::samples() const {
  size_t n = 0;
  for (const std::vector<double>& s : samples_) n += s.size();
  return n;
}

namespace {

// Nanoseconds for a fixed chain of Mix calls on the current CPU.
double SpinNs() {
  Clock::time_point start = Clock::now();
  uint64_t x = 1;
  for (int i = 0; i < 100000; ++i) x = Mix(x);
  volatile uint64_t sink = x;
  (void)sink;
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// The CPUs the process started with, read before the first pin.
const cpu_set_t& StartCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  return allowed;
}

}  // namespace

void PinToFastestCpu() {
  const cpu_set_t& allowed = StartCpus();
  int best = -1;
  double best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    const double ns = std::min({SpinNs(), SpinNs(), SpinNs()});
    if (best < 0 || ns < best_ns) {
      best = cpu;
      best_ns = ns;
    }
  }
  cpu_set_t pin;
  CPU_ZERO(&pin);
  if (best >= 0) {
    CPU_SET(best, &pin);
  } else {
    pin = allowed;
  }
  sched_setaffinity(0, sizeof(pin), &pin);
}

void UnpinCpu() { sched_setaffinity(0, sizeof(cpu_set_t), &StartCpus()); }

double SelfPeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1.0;
}

void RunOutcome::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

std::string ResultJson(const RunOutcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace tupelo::perfbench
