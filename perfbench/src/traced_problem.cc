#include "traced_problem.h"

#include <algorithm>

namespace tupelo::perfbench {

WindowShares AttributeWindow(const std::vector<Interval>& intervals,
                             int64_t begin_ns, int64_t end_ns) {
  WindowShares w;
  struct Event {
    int64_t t;
    int delta;
    size_t layer;
  };
  std::vector<Event> events;
  events.reserve(intervals.size() * 2);
  for (const Interval& iv : intervals) {
    const size_t l = static_cast<size_t>(iv.layer);
    events.push_back({iv.start_ns, +1, l});
    events.push_back({iv.end_ns, -1, l});
    const double d = static_cast<double>(iv.end_ns - iv.start_ns);
    w.layer_busy_ns[l] += d;
    w.layer_calls[l] += 1;
    if (!iv.caller_thread) w.worker_busy_ns += d;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.delta < b.delta;
  });
  int active[kLayerCount] = {0, 0, 0, 0};
  int total = 0;
  int64_t prev = begin_ns;
  auto credit = [&](int64_t until) {
    // Calls leaking outside the window are credited too, so a broken
    // window shows up as closure > 1 instead of being clipped away.
    const double dt = static_cast<double>(until - prev);
    if (dt <= 0) return;
    if (total == 0) {
      if (prev >= begin_ns && until <= end_ns) w.search_self_ns += dt;
    } else {
      for (size_t l = 0; l < kLayerCount; ++l) {
        w.layer_ns[l] += dt * active[l] / total;
      }
    }
  };
  for (const Event& e : events) {
    credit(e.t);
    prev = std::max(prev, e.t);
    active[e.layer] += e.delta;
    total += e.delta;
  }
  credit(end_ns);
  return w;
}

}  // namespace tupelo::perfbench
