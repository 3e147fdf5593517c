#ifndef TUPELO_PERFBENCH_COMMON_H_
#define TUPELO_PERFBENCH_COMMON_H_

// Shared plumbing for the perfbench workloads: command-line arguments,
// clocks, percentiles, peak-memory probes, and the one-line JSON result
// every run ends with.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tupelo::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// CPU time consumed so far, in ms, by the calling thread or by the whole
// process. Unlike wall time it leaves out the time a thread was not
// running: time other processes ran on its CPU, and time the hypervisor
// ran another guest on this VM's vCPU (steal time, which the guest kernel
// subtracts when built with PARAVIRT_TIME_ACCOUNTING).
double ThreadCpuMs();
double ProcessCpuMs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for the trace export, the serve
  // journal and other run artifacts.
  std::string out_dir = ".bench_out";
  // Directory holding the tupelo_serve binary (serve_open only).
  std::string bin_dir;
  // Expected-outcome file of the discovery workloads.
  std::string expected_path;
  // Regenerate the expected file instead of benchmarking (discovery
  // workloads only): runs every task of the universe once.
  bool write_expected = false;
};

// Parses "--name value" pairs; false (with a stderr note) on bad input.
bool ParseArgs(int argc, char** argv, Args* args);

// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Per-operation times of a fixed operation list run in repeated passes.
// An operation's time is its fastest time over the passes, or the mean of
// its k fastest: other tenants of a shared machine only ever add time, and
// the passes spread each operation over the whole run, so a slow stretch
// of the machine does not move the figures the way a per-pass sum would.
// Where the operations' own times vary (serve_open's queueing), the median
// over the passes is used instead.
class OpTimes {
 public:
  explicit OpTimes(size_t ops) : samples_(ops) {}
  void Add(size_t op, double ms) { samples_[op].push_back(ms); }
  std::vector<double> BestMs(size_t k = 1) const;
  std::vector<double> MedianMs() const;
  size_t samples() const;

 private:
  std::vector<std::vector<double>> samples_;
};

// Σ of `ms`, in seconds.
double SumSeconds(const std::vector<double>& ms);

// Scales measured times to a fixed machine speed. On a VM that shares its
// host, the same code ran up to 45% slower for minutes at a time,
// even in CPU time (other guests on the core's sibling thread, in the
// shared cache, or lowering the clock), so ten runs spread further than any
// code change worth catching. The gauge times a fixed reference
// computation of the benchmark's own (string keys in a hash map, two sorts,
// small allocations: the kind of work the program does, but code no change
// to the program touches) between operations, on the thread that runs
// them. A time measured after a probe is scaled by kReferenceMs over that
// probe's time: it reads as the time the operation would take at the speed
// where the reference takes kReferenceMs.
class SpeedGauge {
 public:
  // The reference computation's typical thread CPU time on the 4-vCPU
  // x86-64 VM the benchmark was written on, so scaled times read close to
  // measured ones there.
  static constexpr double kReferenceMs = 1.2;
  // How often ProbeIfDue probes.
  static constexpr double kPeriodMs = 100.0;

  // Times the reference computation (the fastest of three) in thread CPU
  // time on the calling thread. Call it outside any operation's timing.
  void Probe();
  // Probes when kPeriodMs of wall time have passed since the last probe.
  void ProbeIfDue();
  // `ms`, measured since the last probe, at the reference speed.
  double Scale(double ms) const { return ms * kReferenceMs / last_ms_; }
  // Median probe of the run, in ms.
  double MedianMs() const { return Median(probe_ms_); }

 private:
  double last_ms_ = kReferenceMs;
  Clock::time_point last_at_;
  std::vector<double> probe_ms_;
};

// Pins the calling thread to the CPU, among those the process may run on,
// that runs a fixed spin loop fastest at this moment. On a VM whose vCPUs
// share physical cores with other tenants, one vCPU can run 1.5x slower
// than another, which one changing from second to second, and a
// single-threaded run that stays on slow ones reads that much slower. The
// single-threaded workloads call this between operations, outside any
// timing. Threads and processes started afterwards inherit the pin:
// discover_beam must not call it before its pool starts, and serve_open
// calls it on purpose so that its daemon and clients share one CPU.
void PinToFastestCpu();
// Lets the calling thread run on every CPU the process started with again.
void UnpinCpu();

// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double SelfPeakRssMb();
// VmHWM of another process, in MB, from /proc/<pid>/status; -1 on error.
double ProcessPeakRssMb(int pid);

// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run hands back to main(): correctness verdict, the
// operation counts, and the metrics of the requested mode.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records one failed operation with a reason on stderr.
  void Fail(const std::string& why);
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(const RunOutcome& outcome);

// Deterministic 64-bit mixer (splitmix64 finalizer): seeded draws depend
// only on (seed, counter).
uint64_t Mix(uint64_t x);

// Fisher-Yates shuffle driven by Mix(seed ^ i).
template <typename T>
void SeededShuffle(std::vector<T>& v, uint64_t seed) {
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(Mix(seed ^ (i * 0x9e37u)) % i);
    std::swap(v[i - 1], v[j]);
  }
}

// How a set-up is timed. An in-process set-up is timed in thread CPU time,
// each call on the fastest CPU (PinToFastestCpu, untimed; the thread is
// unpinned after). A set-up that starts processes is timed in wall time
// and not pinned here, as the processes would inherit the pin.
enum class SetupClock { kThreadCpu, kWall };

// Times `reps` calls of `setup`, each after a probe of `gauge` and scaled
// by it, appending each call's seconds to `times`; setup_s is their median.
template <typename F>
void TimeSetup(int reps, SetupClock clock, SpeedGauge* gauge,
               std::vector<double>* times, F setup) {
  const bool cpu = clock == SetupClock::kThreadCpu;
  for (int i = 0; i < reps; ++i) {
    if (cpu) PinToFastestCpu();
    gauge->Probe();
    const Clock::time_point start = Clock::now();
    const double cpu_start = ThreadCpuMs();
    setup();
    const double ms = cpu ? ThreadCpuMs() - cpu_start : MillisSince(start);
    times->push_back(gauge->Scale(ms) / 1e3);
  }
  if (cpu) UnpinCpu();
}

}  // namespace tupelo::perfbench

#endif  // TUPELO_PERFBENCH_COMMON_H_
