#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace tupelo::obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetOverwritesAndUpdateMaxIsMonotonic) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Set(3);
  EXPECT_EQ(g.value(), 3);
  g.UpdateMax(7);
  EXPECT_EQ(g.value(), 7);
  g.UpdateMax(5);  // lower: no effect
  EXPECT_EQ(g.value(), 7);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  // Buckets: (-inf,10], (10,20], (20,+inf).
  Histogram h({10, 20});
  h.Observe(10);  // exactly on the first bound -> bucket 0
  h.Observe(11);
  h.Observe(20);  // exactly on the second bound -> bucket 1
  h.Observe(21);  // above every bound -> overflow
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10 + 11 + 20 + 21);
}

TEST(HistogramTest, ExponentialBoundsShape) {
  std::vector<int64_t> bounds = ExponentialBounds(1, 2, 5);
  EXPECT_EQ(bounds, (std::vector<int64_t>{1, 2, 4, 8, 16}));
  ASSERT_FALSE(DefaultLatencyBounds().empty());
  EXPECT_EQ(DefaultLatencyBounds().front(), 1000);  // 1µs in ns
}

TEST(ScopedTimerTest, AccumulatesElapsedNanos) {
  Counter nanos;
  Histogram hist(DefaultLatencyBounds());
  {
    ScopedTimer t(&nanos, &hist);
    // Do a little work so the clock moves; even 0 is legal, but two scopes
    // must both be recorded.
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  { ScopedTimer t(&nanos); }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(nanos.value(), hist.count());  // elapsed >= 1ns per sample
}

TEST(ScopedTimerTest, NullTargetsAreFree) {
  ScopedTimer t(nullptr);  // must not crash or read the clock
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, GetReturnsSameInstrumentByName) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(registry.CounterValue("x"), 1u);
  EXPECT_EQ(registry.CounterValue("missing"), 0u);
}

TEST(MetricRegistryTest, FindDoesNotCreate) {
  MetricRegistry registry;
  EXPECT_EQ(registry.FindCounter("c"), nullptr);
  EXPECT_EQ(registry.FindGauge("g"), nullptr);
  EXPECT_EQ(registry.FindHistogram("h"), nullptr);
  registry.GetCounter("c");
  registry.GetGauge("g");
  registry.GetHistogram("h", {1, 2});
  EXPECT_NE(registry.FindCounter("c"), nullptr);
  EXPECT_NE(registry.FindGauge("g"), nullptr);
  EXPECT_NE(registry.FindHistogram("h"), nullptr);
}

TEST(MetricRegistryTest, ConcurrentCounterIncrements) {
  MetricRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Mix creation (registry mutex) with updates (lock-free).
      Counter& c = registry.GetCounter("shared");
      Gauge& g = registry.GetGauge("peak");
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        g.UpdateMax(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("shared"),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(registry.FindGauge("peak")->value(), kPerThread - 1);
}

TEST(MetricRegistryTest, ToStringListsInstruments) {
  MetricRegistry registry;
  registry.GetCounter("b.count").Increment(2);
  registry.GetCounter("a.count").Increment(1);
  registry.GetGauge("peak").Set(9);
  registry.GetHistogram("lat", {10}).Observe(5);
  std::string s = registry.ToString();
  EXPECT_NE(s.find("a.count"), std::string::npos);
  EXPECT_NE(s.find("b.count"), std::string::npos);
  EXPECT_NE(s.find("peak"), std::string::npos);
  EXPECT_NE(s.find("lat"), std::string::npos);
  // Sorted export: a.count before b.count.
  EXPECT_LT(s.find("a.count"), s.find("b.count"));
}

TEST(MetricRegistryTest, ToJsonStructure) {
  MetricRegistry registry;
  registry.GetCounter("ops").Increment(3);
  registry.GetGauge("peak").Set(-2);
  registry.GetHistogram("lat", {10, 20}).Observe(15);
  JsonValue doc = registry.ToJson();
  ASSERT_TRUE(doc.is_object());
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("ops")->as_uint(), 3u);
  EXPECT_EQ(doc.Find("gauges")->Find("peak")->as_int(), -2);
  const JsonValue* lat = doc.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Find("count")->as_uint(), 1u);
  EXPECT_EQ(lat->Find("sum")->as_int(), 15);
  // Two bounded buckets plus the +inf overflow bucket.
  EXPECT_EQ(lat->Find("buckets")->size(), 3u);
}

// ---------------------------------------------------------------------------
// JSON writer/parser
// ---------------------------------------------------------------------------

TEST(JsonValueTest, BuildsNestedDocuments) {
  JsonValue doc = JsonValue::Object();
  doc["name"] = "tupelo";
  doc["nested"]["depth"] = 2;
  doc["list"].Append(1);
  doc["list"].Append("two");
  EXPECT_EQ(doc.Find("nested")->Find("depth")->as_int(), 2);
  EXPECT_EQ(doc.Find("list")->size(), 2u);
  EXPECT_EQ(doc.Dump(),
            "{\"name\":\"tupelo\",\"nested\":{\"depth\":2},"
            "\"list\":[1,\"two\"]}");
}

TEST(JsonValueTest, EscapesStrings) {
  JsonValue v("a\"b\\c\n\t\x01");
  std::string dump = v.Dump();
  EXPECT_EQ(dump, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonValueTest, ParseRoundTripPreservesDocument) {
  JsonValue doc = JsonValue::Object();
  doc["bool_t"] = true;
  doc["bool_f"] = false;
  doc["int"] = -42;
  doc["uint"] = static_cast<uint64_t>(1) << 63;
  doc["double"] = 0.125;
  doc["string"] = "hello \"world\"";
  doc["array"].Append(JsonValue());
  doc["array"].Append(3);
  doc["object"]["k"] = "v";

  Result<JsonValue> parsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Dump of the parse equals the original dump (lossless round trip).
  EXPECT_EQ(parsed->Dump(), doc.Dump());
  // Pretty printing parses back to the same document too.
  Result<JsonValue> pretty = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty->Dump(), doc.Dump());
}

TEST(JsonValueTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("'single'").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
}

TEST(JsonValueTest, ParseDecodesEscapes) {
  Result<JsonValue> v = JsonValue::Parse("\"tab\\tnewline\\nu\\u0041\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "tab\tnewline\nuA");
}

TEST(JsonValueTest, RegistryJsonRoundTrip) {
  MetricRegistry registry;
  registry.GetCounter("search.states_examined").Increment(17);
  registry.GetGauge("search.peak_memory_nodes").UpdateMax(5);
  registry.GetHistogram("search.f_bound", {1, 2, 4}).Observe(3);
  std::string dump = registry.ToJson().Dump(2);
  Result<JsonValue> parsed = JsonValue::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(
      parsed->Find("counters")->Find("search.states_examined")->as_uint(),
      17u);
}

}  // namespace
}  // namespace tupelo::obs
