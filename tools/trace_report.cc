// trace_report: offline analysis of a discovery trace — the Chrome
// trace-event JSON written by a --trace= run or left behind by the flight
// recorder (both are TraceSession::WriteChromeJson exports, read back with
// obs::ParseChromeTrace).
//
// Sections:
//   - top spans by self time: where the wall clock actually went, with
//     child time subtracted (an all-inclusive "search" span would
//     otherwise dwarf everything under it);
//   - per-thread utilization: top-level busy time per track over the
//     trace extent, which makes idle parallel-beam workers visible;
//   - per-rung critical path: for each rung.* span of the degradation
//     ladder, the hottest span names (by self time, any thread) inside
//     its interval;
//   - progress timeline: bucketed event counts with goal / iteration /
//     fault / checkpoint marks, a coarse "was it still making progress"
//     view for flight dumps.
//
// Usage:
//   trace_report <trace.json | trace.json.flight> [--top=N] [--buckets=N]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/text.h"
#include "obs/trace.h"

namespace tupelo {
namespace {

using obs::TraceCategory;
using obs::TraceExportEvent;
using obs::TracePhase;

struct SpanAgg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct ClosedSpan {
  const std::string* name;
  uint32_t tid = 0;
  uint64_t begin_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t self_ns = 0;
  size_t depth = 0;
};

struct ThreadStats {
  uint64_t events = 0;
  uint64_t spans = 0;
  uint64_t busy_ns = 0;  // sum of top-level span durations
};

struct Analysis {
  std::map<std::string, SpanAgg> by_name;
  std::map<uint32_t, ThreadStats> threads;
  std::vector<ClosedSpan> closed;
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  uint64_t instants = 0;
  uint64_t faults = 0;
};

// Walks each thread's event stream with a span stack, computing
// inclusive and exclusive (self) time per span. Orphan E events are
// skipped and still-open B events are closed at the thread's last
// timestamp, mirroring the export-time reconciliation, so the tool also
// accepts truncated or foreign inputs.
Analysis Analyze(const std::vector<TraceExportEvent>& events) {
  Analysis a;
  if (!events.empty()) {
    a.first_ns = UINT64_MAX;
    for (const TraceExportEvent& e : events) {
      a.first_ns = std::min(a.first_ns, e.ts_ns);
      a.last_ns = std::max(a.last_ns, e.ts_ns);
    }
  }
  struct Open {
    const std::string* name;
    uint64_t begin_ns = 0;
    uint64_t child_ns = 0;
  };
  std::map<uint32_t, std::vector<Open>> stacks;
  std::map<uint32_t, uint64_t> last_ts;

  auto close = [&a](std::vector<Open>& stack, uint32_t tid, uint64_t end_ns) {
    Open top = stack.back();
    stack.pop_back();
    uint64_t dur = end_ns >= top.begin_ns ? end_ns - top.begin_ns : 0;
    uint64_t self = dur >= top.child_ns ? dur - top.child_ns : 0;
    if (!stack.empty()) {
      stack.back().child_ns += dur;
    } else {
      a.threads[tid].busy_ns += dur;
    }
    SpanAgg& agg = a.by_name[*top.name];
    ++agg.count;
    agg.total_ns += dur;
    agg.self_ns += self;
    a.closed.push_back(
        {top.name, tid, top.begin_ns, dur, self, stack.size()});
    ++a.threads[tid].spans;
  };

  for (const TraceExportEvent& e : events) {
    ++a.threads[e.tid].events;
    last_ts[e.tid] = std::max(last_ts[e.tid], e.ts_ns);
    std::vector<Open>& stack = stacks[e.tid];
    switch (e.phase) {
      case TracePhase::kBegin:
        stack.push_back({&e.name, e.ts_ns, 0});
        break;
      case TracePhase::kEnd:
        if (!stack.empty() && *stack.back().name == e.name) {
          close(stack, e.tid, e.ts_ns);
        }
        break;
      case TracePhase::kInstant:
        ++a.instants;
        if (e.cat == TraceCategory::kFault) ++a.faults;
        break;
    }
  }
  for (auto& [tid, stack] : stacks) {
    while (!stack.empty()) close(stack, tid, last_ts[tid]);
  }
  return a;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void PrintTopSpans(const Analysis& a, size_t top_n) {
  std::vector<std::pair<std::string, SpanAgg>> rows(a.by_name.begin(),
                                                    a.by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.self_ns > y.second.self_ns;
  });
  uint64_t self_sum = 0;
  for (const auto& [name, agg] : rows) self_sum += agg.self_ns;

  std::printf("## top spans by self time\n");
  std::printf("%-24s %10s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const auto& [name, agg] = rows[i];
    double pct = self_sum == 0 ? 0.0
                               : 100.0 * static_cast<double>(agg.self_ns) /
                                     static_cast<double>(self_sum);
    std::printf("%-24s %10llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(agg.count), Ms(agg.total_ns),
                Ms(agg.self_ns), pct);
  }
  std::printf("\n");
}

void PrintThreads(const Analysis& a) {
  uint64_t extent = a.last_ns > a.first_ns ? a.last_ns - a.first_ns : 0;
  std::printf("## per-thread utilization (extent %.3f ms)\n", Ms(extent));
  std::printf("%6s %10s %10s %12s %7s\n", "tid", "events", "spans", "busy_ms",
              "util%");
  for (const auto& [tid, stats] : a.threads) {
    double util = extent == 0 ? 0.0
                              : 100.0 * static_cast<double>(stats.busy_ns) /
                                    static_cast<double>(extent);
    std::printf("%6u %10llu %10llu %12.3f %6.1f%%\n", tid,
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.spans),
                Ms(stats.busy_ns), util);
  }
  std::printf("\n");
}

void PrintRungs(const Analysis& a) {
  std::vector<const ClosedSpan*> rungs;
  for (const ClosedSpan& s : a.closed) {
    if (s.name->rfind("rung.", 0) == 0) rungs.push_back(&s);
  }
  std::sort(rungs.begin(), rungs.end(),
            [](const ClosedSpan* x, const ClosedSpan* y) {
              return x->begin_ns < y->begin_ns;
            });
  if (rungs.empty()) return;

  std::printf("## per-rung critical path\n");
  for (const ClosedSpan* rung : rungs) {
    uint64_t rung_end = rung->begin_ns + rung->dur_ns;
    // Hottest work inside the rung's interval, by self time, across every
    // thread (the rung span lives on the driver track but beam work lands
    // on pool workers).
    std::map<std::string, uint64_t> inside;
    for (const ClosedSpan& s : a.closed) {
      if (&s == rung || s.name->rfind("rung.", 0) == 0) continue;
      if (s.begin_ns >= rung->begin_ns && s.begin_ns < rung_end) {
        inside[*s.name] += s.self_ns;
      }
    }
    std::vector<std::pair<std::string, uint64_t>> hot(inside.begin(),
                                                      inside.end());
    std::sort(hot.begin(), hot.end(), [](const auto& x, const auto& y) {
      return x.second > y.second;
    });
    std::printf("%-12s @%9.3f ms  dur %9.3f ms ", rung->name->c_str(),
                Ms(rung->begin_ns - a.first_ns), Ms(rung->dur_ns));
    const char* sep = " | ";
    for (size_t i = 0; i < hot.size() && i < 3; ++i) {
      std::printf("%s%s %.3f ms", sep, hot[i].first.c_str(),
                  Ms(hot[i].second));
      sep = ", ";
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void PrintTimeline(const std::vector<TraceExportEvent>& events,
                   const Analysis& a, size_t buckets) {
  uint64_t extent = a.last_ns > a.first_ns ? a.last_ns - a.first_ns : 0;
  if (extent == 0 || buckets == 0 || events.empty()) return;
  struct Bucket {
    uint64_t count = 0;
    bool goal = false, iteration = false, fault = false, checkpoint = false;
  };
  std::vector<Bucket> cells(buckets);
  for (const TraceExportEvent& e : events) {
    size_t i = static_cast<size_t>(
        static_cast<double>(e.ts_ns - a.first_ns) /
        static_cast<double>(extent) * static_cast<double>(buckets));
    if (i >= buckets) i = buckets - 1;
    Bucket& b = cells[i];
    ++b.count;
    if (e.phase == TracePhase::kInstant) {
      if (e.name == "goal") b.goal = true;
      if (e.name == "iteration") b.iteration = true;
      if (e.cat == TraceCategory::kFault) b.fault = true;
    }
    if (e.cat == TraceCategory::kCheckpoint) b.checkpoint = true;
  }
  uint64_t peak = 0;
  for (const Bucket& b : cells) peak = std::max(peak, b.count);

  std::printf(
      "## progress timeline (%zu buckets; marks: G goal, I iteration, "
      "F fault, C checkpoint)\n",
      buckets);
  for (size_t i = 0; i < buckets; ++i) {
    const Bucket& b = cells[i];
    double at = Ms(a.first_ns) +
                Ms(extent) * static_cast<double>(i) /
                    static_cast<double>(buckets);
    int bar = peak == 0 ? 0
                        : static_cast<int>(40.0 * static_cast<double>(b.count) /
                                           static_cast<double>(peak));
    std::printf("%9.3f ms %8llu |%-40.*s| %s%s%s%s\n", at,
                static_cast<unsigned long long>(b.count), bar,
                "########################################",
                b.goal ? "G" : "", b.iteration ? "I" : "", b.fault ? "F" : "",
                b.checkpoint ? "C" : "");
  }
  std::printf("\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: trace_report <trace.json | trace.json.flight> "
               "[--top=N] [--buckets=N]\n");
  return 2;
}

}  // namespace
}  // namespace tupelo

int main(int argc, char** argv) {
  using namespace tupelo;

  std::string path;
  size_t top_n = 20;
  size_t buckets = 32;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--top=", 0) == 0) {
      top_n = std::strtoull(argv[i] + std::strlen("--top="), nullptr, 10);
    } else if (arg.rfind("--buckets=", 0) == 0) {
      buckets =
          std::strtoull(argv[i] + std::strlen("--buckets="), nullptr, 10);
    } else if (arg.rfind("--", 0) == 0 || !path.empty()) {
      return Usage();
    } else {
      path = std::string(arg);
    }
  }
  if (path.empty()) return Usage();

  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "trace_report: %s\n",
                 bytes.status().ToString().c_str());
    return 1;
  }

  Result<std::vector<obs::TraceExportEvent>> parsed =
      obs::ParseChromeTrace(*bytes);
  if (!parsed.ok()) {
    std::fprintf(stderr, "trace_report: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::vector<obs::TraceExportEvent> events = *std::move(parsed);
  // Stable: equal-timestamp B/E pairs within a thread must keep their
  // emission order or the stack walk would orphan them.
  std::stable_sort(
      events.begin(), events.end(),
      [](const obs::TraceExportEvent& x, const obs::TraceExportEvent& y) {
        return x.ts_ns < y.ts_ns;
      });

  Analysis a = Analyze(events);
  std::printf("# trace_report: %zu events, %zu threads, %.3f ms, "
              "%llu instants, %llu faults\n\n",
              events.size(), a.threads.size(),
              Ms(a.last_ns - a.first_ns),
              static_cast<unsigned long long>(a.instants),
              static_cast<unsigned long long>(a.faults));
  PrintTopSpans(a, top_n);
  PrintThreads(a);
  PrintRungs(a);
  PrintTimeline(events, a, buckets);
  return 0;
}
