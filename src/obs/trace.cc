#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/text.h"

namespace tupelo::obs {

namespace {

// Keys the thread-local ring cache so a thread can tell "this session"
// apart from a dead one reallocated at the same address. Never reused.
std::atomic<uint64_t> g_next_session_id{1};

struct TlsSlot {
  uint64_t session_id = 0;
  void* buffer = nullptr;
};
thread_local TlsSlot tls_slot;

size_t RingCapacityFor(size_t buffer_kb, size_t record_size) {
  size_t records = (std::max<size_t>(buffer_kb, 1) * 1024) / record_size;
  size_t cap = 64;
  while (cap * 2 <= records) cap *= 2;
  return cap;
}

}  // namespace

std::string_view TraceCategoryName(TraceCategory cat) {
  switch (cat) {
    case TraceCategory::kSearch:
      return "search";
    case TraceCategory::kExpand:
      return "expand";
    case TraceCategory::kHeuristic:
      return "heuristic";
    case TraceCategory::kExecutor:
      return "executor";
    case TraceCategory::kDriver:
      return "driver";
    case TraceCategory::kVerify:
      return "verify";
    case TraceCategory::kCheckpoint:
      return "checkpoint";
    case TraceCategory::kFault:
      return "fault";
  }
  return "unknown";
}

TraceSession::TraceSession(size_t buffer_kb)
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(RingCapacityFor(buffer_kb, sizeof(Record))),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuffer* TraceSession::RegisterThisThread() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = by_thread_.try_emplace(std::this_thread::get_id());
  if (inserted) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    buffer->mask = capacity_ - 1;
    buffer->ring = std::make_unique<Record[]>(capacity_);
    it->second = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  tls_slot.session_id = id_;
  tls_slot.buffer = it->second;
  return it->second;
}

void TraceSession::Emit(TracePhase phase, TraceCategory cat, const char* name,
                        const char* k1, int64_t v1, const char* k2,
                        int64_t v2) {
  ThreadBuffer* buffer = tls_slot.session_id == id_
                             ? static_cast<ThreadBuffer*>(tls_slot.buffer)
                             : RegisterThisThread();
  uint64_t ts = NowNs();
  uint64_t head = buffer->head.load(std::memory_order_relaxed);
  Record& r = buffer->ring[head & buffer->mask];
  r.ts_ns = ts;
  r.name = name;
  r.k1 = k1;
  r.k2 = k2;
  r.v1 = v1;
  r.v2 = v2;
  r.cat = cat;
  r.phase = phase;
  buffer->head.store(head + 1, std::memory_order_release);
}

uint64_t TraceSession::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TraceSession::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    uint64_t head = buffer->head.load(std::memory_order_relaxed);
    if (head > capacity_) dropped += head - capacity_;
  }
  return dropped;
}

size_t TraceSession::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

std::vector<TraceExportEvent> TraceSession::Collect() const {
  std::vector<TraceExportEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    uint64_t head = buffer->head.load(std::memory_order_acquire);
    uint64_t n = std::min<uint64_t>(head, capacity_);
    uint64_t first = head - n;
    // B/E reconciliation: ring overwrite evicts oldest-first, so the
    // retained window can open with E events whose B is gone (discarded
    // here) and close with B events whose E was never emitted (closed at
    // the window's last timestamp). RAII emission guarantees strict
    // nesting per thread, so a depth stack is sufficient.
    std::vector<const Record*> open_spans;
    std::vector<TraceExportEvent> events;
    events.reserve(n);
    uint64_t last_ts = 0;
    auto append = [&](const Record& r, TracePhase phase, uint64_t ts) {
      TraceExportEvent e;
      e.ts_ns = ts;
      e.tid = buffer->tid;
      e.phase = phase;
      e.cat = r.cat;
      e.name = r.name;
      if (r.k1 != nullptr) e.args.emplace_back(r.k1, r.v1);
      if (r.k2 != nullptr) e.args.emplace_back(r.k2, r.v2);
      events.push_back(std::move(e));
    };
    for (uint64_t i = first; i < head; ++i) {
      const Record& r = buffer->ring[i & buffer->mask];
      last_ts = std::max(last_ts, r.ts_ns);
      switch (r.phase) {
        case TracePhase::kBegin:
          open_spans.push_back(&r);
          append(r, TracePhase::kBegin, r.ts_ns);
          break;
        case TracePhase::kEnd:
          if (open_spans.empty()) break;  // orphan: its B was overwritten
          open_spans.pop_back();
          append(r, TracePhase::kEnd, r.ts_ns);
          break;
        case TracePhase::kInstant:
          append(r, TracePhase::kInstant, r.ts_ns);
          break;
      }
    }
    // Close spans still open at collection time, innermost first.
    while (!open_spans.empty()) {
      const Record* b = open_spans.back();
      open_spans.pop_back();
      Record closer = *b;
      closer.k1 = nullptr;
      closer.k2 = nullptr;
      append(closer, TracePhase::kEnd, last_ts);
    }
    out.insert(out.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceExportEvent& a, const TraceExportEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

JsonValue TraceSession::ToChromeJson() const {
  std::vector<TraceExportEvent> events = Collect();
  JsonValue root = JsonValue::Object();
  root["displayTimeUnit"] = "ms";
  JsonValue& list = root["traceEvents"];
  list = JsonValue::Array();
  size_t threads = thread_count();
  {
    JsonValue meta = JsonValue::Object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = static_cast<int64_t>(1);
    meta["tid"] = static_cast<int64_t>(0);
    meta["args"]["name"] = "tupelo";
    list.Append(std::move(meta));
  }
  for (size_t t = 0; t < threads; ++t) {
    JsonValue meta = JsonValue::Object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = static_cast<int64_t>(1);
    meta["tid"] = static_cast<int64_t>(t);
    meta["args"]["name"] =
        t == 0 ? std::string("main") : "worker-" + std::to_string(t);
    list.Append(std::move(meta));
  }
  for (const TraceExportEvent& e : events) {
    JsonValue ev = JsonValue::Object();
    ev["name"] = e.name;
    ev["cat"] = std::string(TraceCategoryName(e.cat));
    switch (e.phase) {
      case TracePhase::kBegin:
        ev["ph"] = "B";
        break;
      case TracePhase::kEnd:
        ev["ph"] = "E";
        break;
      case TracePhase::kInstant:
        ev["ph"] = "i";
        ev["s"] = "t";  // instant scope: thread
        break;
    }
    // Chrome's ts unit is microseconds; keep nanosecond precision in the
    // fraction so adjacent hot-path events stay ordered.
    ev["ts"] = static_cast<double>(e.ts_ns) / 1000.0;
    ev["pid"] = static_cast<int64_t>(1);
    ev["tid"] = static_cast<int64_t>(e.tid);
    if (!e.args.empty()) {
      JsonValue& args = ev["args"];
      for (const auto& [key, value] : e.args) args[key] = value;
    }
    list.Append(std::move(ev));
  }
  return root;
}

bool TraceSession::WriteChromeJson(const std::string& path) const {
  std::string text = ToChromeJson().Dump(1);
  text.push_back('\n');
  Status wrote = AtomicWriteFile(path, text);
  if (!wrote.ok()) {
    std::fprintf(stderr, "trace: %s\n", wrote.ToString().c_str());
  }
  return wrote.ok();
}

namespace {

TraceCategory CategoryFromName(std::string_view name) {
  for (TraceCategory cat :
       {TraceCategory::kSearch, TraceCategory::kExpand,
        TraceCategory::kHeuristic, TraceCategory::kExecutor,
        TraceCategory::kDriver, TraceCategory::kVerify,
        TraceCategory::kCheckpoint, TraceCategory::kFault}) {
    if (TraceCategoryName(cat) == name) return cat;
  }
  return TraceCategory::kSearch;
}

}  // namespace

Result<std::vector<TraceExportEvent>> ParseChromeTrace(std::string_view text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  if (!doc.ok()) return doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::ParseError("trace: no traceEvents array");
  }
  std::vector<TraceExportEvent> out;
  out.reserve(events->elements().size());
  for (const JsonValue& e : events->elements()) {
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* tid = e.Find("tid");
    const JsonValue* name = e.Find("name");
    if (ph == nullptr || ts == nullptr || tid == nullptr || name == nullptr) {
      continue;
    }
    const std::string& phase = ph->as_string();
    TraceExportEvent ev;
    if (phase == "B") {
      ev.phase = TracePhase::kBegin;
    } else if (phase == "E") {
      ev.phase = TracePhase::kEnd;
    } else if (phase == "i" || phase == "I") {
      ev.phase = TracePhase::kInstant;
    } else {
      continue;  // metadata, counters, complete events from other tools
    }
    // ts is microseconds printed with %.17g; a truncating conversion
    // would read some nanosecond values back one short.
    const double ts_ns = ts->as_double() * 1000.0;
    if (!(ts_ns >= 0.0 && ts_ns < 0x1p63)) {
      return Status::ParseError("trace: event ts out of range");
    }
    ev.ts_ns = static_cast<uint64_t>(std::llround(ts_ns));
    ev.tid = static_cast<uint32_t>(tid->as_int());
    ev.name = name->as_string();
    if (const JsonValue* cat = e.Find("cat"); cat != nullptr) {
      ev.cat = CategoryFromName(cat->as_string());
    }
    if (const JsonValue* args = e.Find("args");
        args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->members()) {
        if (value.is_number()) ev.args.emplace_back(key, value.as_int());
      }
    }
    out.push_back(std::move(ev));
  }
  return out;
}

}  // namespace tupelo::obs
