// Tests of the observability subsystem: metrics registry (concurrency,
// interning, exporters), tracing (nesting, retroactive spans, Chrome JSON),
// leveled logging (capture sink, level filter, subsystem tag) and the
// ResourceMeter -> registry mirror.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/stats.h"
#include "common/strings.h"
#include "obs/flightrecorder.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/resource_meter.h"
#include "obs/timeseries.h"

namespace esharp::obs {
namespace {

// ---- Counter / Gauge ------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (size_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, IncrementWithDelta) {
  Counter counter;
  counter.Increment(5);
  counter.Increment(7);
  EXPECT_EQ(counter.Value(), 12u);
}

TEST(GaugeTest, SetAndConcurrentAddAreExact) {
  Gauge gauge;
  gauge.Set(41.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 41.5);
  gauge.Set(0);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (size_t i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  // Add is a CAS loop, so no increments are lost.
  EXPECT_DOUBLE_EQ(gauge.Value(), static_cast<double>(kThreads * kPerThread));
}

// ---- Histogram ------------------------------------------------------------

TEST(HistogramTest, PercentilesAreOrderedAndSane) {
  Histogram hist;
  // 1..1000 ms as seconds: p50 ~ 0.5 s, p99 ~ 1 s.
  for (int i = 1; i <= 1000; ++i) hist.Observe(i / 1000.0);
  HistogramSnapshot s = hist.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  // Percentiles report bucket upper bounds (~16% relative resolution), so
  // p99 may slightly exceed the exact max.
  EXPECT_LE(s.p99, s.max * 1.2);
  EXPECT_NEAR(s.p50, 0.5, 0.1);
  EXPECT_GT(s.p99, 0.9);
  EXPECT_NEAR(s.mean, 0.5005, 0.05);
  EXPECT_NEAR(s.max, 1.0, 0.01);
  hist.Reset();
  EXPECT_EQ(hist.Snapshot().count, 0u);
}

// Observers on several threads write several shards; the merged reading
// must equal one LatencyHistogram fed the same values. The values are
// dyadic (a multiple of 2^-23 s), so every partial sum is exact and the
// mean compares bit for bit whatever order the shards merge in.
TEST(HistogramTest, ShardedObservationsMergeToOneHistogram) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 5000;
  auto value = [](size_t thread, size_t i) {
    const double mantissa =
        1.0 + static_cast<double>((thread * 31 + i) % 8) / 8;
    return std::ldexp(mantissa, static_cast<int>((thread + i) % 24) - 20);
  };
  Histogram hist;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, &value, t] {
      for (size_t i = 0; i < kPerThread; ++i) hist.Observe(value(t, i));
    });
  }
  for (auto& t : threads) t.join();

  LatencyHistogram reference;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) reference.Add(value(t, i));
  }
  HistogramSnapshot s = hist.Snapshot();
  EXPECT_EQ(s.count, reference.count());
  EXPECT_EQ(s.mean, reference.Mean());
  EXPECT_EQ(s.max, reference.Max());
  EXPECT_EQ(s.p50, reference.Percentile(50));
  EXPECT_EQ(s.p95, reference.Percentile(95));
  EXPECT_EQ(s.p99, reference.Percentile(99));
  hist.Reset();
  EXPECT_EQ(hist.Snapshot().count, 0u);
}

// Labelled observations from every thread race on one exemplar slot per
// decade bucket: each slot keeps one whole (value, label) pair, and the
// latest labelled observation replaces it; unlabelled ones never do.
TEST(HistogramTest, ExemplarIsLatestLabelledObservationPerBucket) {
  const double kValues[] = {0.0005, 0.005, 0.05, 0.5, 5.0};
  const double kBounds[] = {0.001, 0.01, 0.1, 1.0, 1e300};
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 1000;
  Histogram hist;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, &kValues, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        hist.Observe(kValues[i % 5], StrFormat("%zu-%zu", t, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Exemplar> raced = hist.Exemplars();
  ASSERT_EQ(raced.size(), 5u);
  for (size_t b = 0; b < 5; ++b) {
    size_t t = 0, i = 0;
    ASSERT_EQ(std::sscanf(raced[b].label.c_str(), "%zu-%zu", &t, &i), 2);
    EXPECT_LT(t, kThreads);
    EXPECT_EQ(i % 5, b) << "label of another bucket: " << raced[b].label;
    EXPECT_EQ(raced[b].value_seconds, kValues[b]);
    EXPECT_EQ(raced[b].le_seconds, kBounds[b]);
  }

  for (size_t b = 0; b < 5; ++b) {
    hist.Observe(kValues[b] * 1.5, StrFormat("last-%zu", b));
    hist.Observe(kValues[b]);
  }
  std::vector<Exemplar> latest = hist.Exemplars();
  ASSERT_EQ(latest.size(), 5u);
  for (size_t b = 0; b < 5; ++b) {
    EXPECT_EQ(latest[b].label, StrFormat("last-%zu", b));
    EXPECT_EQ(latest[b].value_seconds, kValues[b] * 1.5);
  }
  EXPECT_EQ(hist.Snapshot().count, kThreads * kPerThread + 10);
  hist.Reset();
  EXPECT_TRUE(hist.Exemplars().empty());
}

// ---- LiveRequests -----------------------------------------------------------

// The /tracez registry under churn: writer threads register and drop their
// records in a loop while a reader walks the registry. A walk never sees a
// record twice, nor one whose Remove has returned; every id is unique and
// non-zero.
TEST(LiveRequestsTest, ConcurrentAddRemoveAndForEach) {
  constexpr size_t kWriters = 4;
  constexpr size_t kRecordsPerWriter = 3;
  constexpr size_t kMinRounds = 500;
  constexpr size_t kWalks = 2000;
  constexpr size_t kMinSeen = 1000;
  struct Slot {
    RequestRecord record{"request", "q", 0.0};
    std::atomic<bool> registered{false};
  };
  std::array<Slot, kWriters * kRecordsPerWriter> slots;
  std::map<const RequestRecord*, const Slot*> slot_of;
  for (const Slot& slot : slots) slot_of[&slot.record] = &slot;

  LiveRequests live;
  std::atomic<size_t> started{0};
  std::atomic<bool> walking{true};
  std::vector<std::vector<uint64_t>> ids(kWriters);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Slot* own = &slots[w * kRecordsPerWriter];
      started.fetch_add(1);
      for (size_t round = 0; round < kMinRounds || walking.load(); ++round) {
        for (size_t r = 0; r < kRecordsPerWriter; ++r) {
          own[r].registered.store(true);
          live.Add(&own[r].record);
          ids[w].push_back(own[r].record.id());
        }
        // Unlink from the middle, the tail and the head of the list.
        for (size_t r : {size_t{1}, size_t{0}, size_t{2}}) {
          live.Remove(&own[r].record);
          own[r].registered.store(false);
        }
      }
    });
  }
  // Walk once every writer runs, and until the walks have met records
  // often enough to matter (an empty walk checks nothing).
  while (started.load() < kWriters) std::this_thread::yield();
  size_t seen_total = 0, duplicates = 0, stale = 0, zero_ids = 0;
  for (size_t walk = 0; walk < kWalks || seen_total < kMinSeen; ++walk) {
    std::vector<const RequestRecord*> seen;
    live.ForEach([&](const RequestRecord& record) {
      seen.push_back(&record);
      if (!slot_of.at(&record)->registered.load()) ++stale;
      if (record.id() == 0) ++zero_ids;
    });
    seen_total += seen.size();
    std::sort(seen.begin(), seen.end());
    duplicates += static_cast<size_t>(
        seen.end() - std::unique(seen.begin(), seen.end()));
  }
  walking.store(false);
  for (auto& t : writers) t.join();
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(stale, 0u);
  EXPECT_EQ(zero_ids, 0u);

  std::vector<uint64_t> all;
  for (const std::vector<uint64_t>& v : ids) {
    all.insert(all.end(), v.begin(), v.end());
  }
  ASSERT_GE(all.size(), kWriters * kRecordsPerWriter * kMinRounds);
  EXPECT_EQ(std::count(all.begin(), all.end(), uint64_t{0}), 0);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());

  size_t left = 0;
  live.ForEach([&left](const RequestRecord&) { ++left; });
  EXPECT_EQ(left, 0u);
}

// ---- Registry -------------------------------------------------------------

TEST(MetricsRegistryTest, InternsByNameAndSortedLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reg.c", {{"x", "1"}, {"y", "2"}});
  Counter* b = registry.GetCounter("reg.c", {{"y", "2"}, {"x", "1"}});
  Counter* c = registry.GetCounter("reg.c", {{"x", "1"}});
  Counter* d = registry.GetCounter("reg.c");
  EXPECT_EQ(a, b);  // label order does not matter
  EXPECT_NE(a, c);
  EXPECT_NE(c, d);
  EXPECT_EQ(registry.size(), 3u);
  // Different kinds never alias, even under one name.
  Gauge* g = registry.GetGauge("reg.c");
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(d));
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateReturnsOnePointer) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.GetCounter("race.c", {{"k", "v"}});
      for (int i = 0; i < 1000; ++i) c->Increment();
      seen[t] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), kThreads * 1000u);
}

TEST(MetricsRegistryTest, JsonExportRoundTripsValues) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests", {{"stage", "extract"}})->Increment(7);
  registry.GetGauge("test.depth")->Set(2.5);
  Histogram* h = registry.GetHistogram("test.latency");
  h->Observe(0.25);
  h->Observe(0.25);
  std::string json = registry.ExportJson();
  // The serialization is deterministic (map-ordered, %.12g numbers), so the
  // round trip is checked against the exact encoded forms.
  EXPECT_NE(json.find("\"counters\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("{\"name\":\"test.requests\",\"labels\":{\"stage\":"
                      "\"extract\"},\"value\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"test.depth\",\"labels\":{},\"value\":2.5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"test.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // Structural sanity: braces and brackets balance.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, WriteJsonFileRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("file.counter")->Increment(3);
  std::string path = ::testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // The capture timestamp moves between the write and a fresh export;
  // everything after its line must round-trip byte-identically.
  auto strip_stamp = [](const std::string& json) {
    auto pos = json.find('\n', json.find("captured_unix_ms"));
    return json.substr(pos);
  };
  EXPECT_NE(contents->find("\"captured_unix_ms\": "), std::string::npos);
  EXPECT_EQ(strip_stamp(*contents), strip_stamp(registry.ExportJson()));
  std::remove(path.c_str());
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("prom.requests", {{"stage", "rank"}})->Increment(4);
  registry.GetGauge("prom-gauge.depth")->Set(1.5);
  registry.GetHistogram("prom.latency")->Observe(0.5);
  std::string text = registry.ExportPrometheus();
  // Names sanitize ('.'/'-' -> '_'), one # TYPE line per family.
  EXPECT_NE(text.find("# TYPE prom_requests counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("prom_requests{stage=\"rank\"} 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE prom_gauge_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("prom_latency{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("prom_latency_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsPointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reset.c");
  c->Increment(9);
  registry.GetHistogram("reset.h")->Observe(1.0);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("reset.h")->Snapshot().count, 0u);
  EXPECT_EQ(registry.GetCounter("reset.c"), c);
}

TEST(MetricsRegistryTest, DumpAllCoversGlobalRegistry) {
  MetricsRegistry::Global().GetCounter("obs_test.dump_marker")->Increment();
  EXPECT_NE(DumpAll().find("obs_test_dump_marker"), std::string::npos);
}

// ---- Tracing --------------------------------------------------------------

TEST(TracerTest, SpanNestingRecordsParentIdsAndContainment) {
  Tracer tracer;
  uint64_t parent_id, child_id;
  {
    Span parent = tracer.StartSpan("parent");
    parent_id = parent.id();
    {
      Span child = tracer.StartSpan("child", &parent);
      child_id = child.id();
      EXPECT_NE(child_id, parent_id);
    }
  }
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // The child ends (and records) first.
  EXPECT_EQ(events[0].name, "child");
  EXPECT_EQ(events[0].id, child_id);
  EXPECT_EQ(events[0].parent_id, parent_id);
  EXPECT_EQ(events[1].name, "parent");
  EXPECT_EQ(events[1].parent_id, 0u);
  // Containment: the child interval lies inside the parent interval.
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us + 1.0);
}

TEST(TracerTest, CrossThreadChildKeepsParentLink) {
  Tracer tracer;
  Span parent = tracer.StartSpan("parent");
  std::thread worker([&tracer, &parent] {
    Span child = tracer.StartSpan("child", &parent);
    child.Annotate("worker", "true");
  });
  worker.join();
  parent.End();
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].parent_id, parent.id());
  // Distinct threads get distinct dense tids.
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TracerTest, AnnotationsAndRetroactiveSpans) {
  Tracer tracer;
  double t0 = NowSeconds() - 0.010;
  Span request = tracer.StartSpanAt("request", nullptr, t0);
  uint64_t admission =
      tracer.RecordSpan("admission", &request, t0, t0 + 0.005,
                        {{"outcome", "admitted"}});
  EXPECT_GT(admission, 0u);
  request.Annotate("outcome", "ok");
  request.Annotate("experts", static_cast<int64_t>(10));
  request.End();
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& adm = events[0];
  EXPECT_EQ(adm.name, "admission");
  EXPECT_EQ(adm.parent_id, request.id());
  EXPECT_NEAR(adm.dur_us, 5000.0, 100.0);
  const TraceEvent& req = events[1];
  EXPECT_GE(req.dur_us, 9000.0);  // opened ~10ms in the past
  ASSERT_FALSE(req.args.empty());
  EXPECT_EQ(req.args[0].first, "outcome");
  EXPECT_EQ(req.args[0].second, "ok");
}

TEST(TracerTest, ChromeJsonIsLoadableShape) {
  Tracer tracer;
  {
    Span parent = tracer.StartSpan("job");
    Span child = tracer.StartSpan("step", &parent);
    child.Annotate("k", "v");
  }
  std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"job\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  tracer.Reset();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, InertSpansAreHarmless) {
  Span inert;  // default-constructed
  inert.Annotate("k", "v");
  inert.End();
  EXPECT_FALSE(inert.active());
  EXPECT_EQ(inert.id(), 0u);
  // The null-tolerant free function mirrors the macro's disabled path.
  Span from_null = StartSpan(nullptr, "nope");
  EXPECT_FALSE(from_null.active());
}

// ---- Logging --------------------------------------------------------------

TEST(LogTest, CapturedSinkSeesFormattedLine) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  ESHARP_LOG(WARN) << "disk almost full: " << 93 << "%";
  SetLogSink(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::kWARN);
  EXPECT_NE(captured[0].second.find("WARN"), std::string::npos);
  EXPECT_NE(captured[0].second.find("disk almost full: 93%"),
            std::string::npos);
  // Subsystem tag parsed from the path: this file lives under tests/.
  EXPECT_NE(captured[0].second.find("[tests]"), std::string::npos)
      << captured[0].second;
  EXPECT_NE(captured[0].second.find("obs_test.cc"), std::string::npos);
}

TEST(LogTest, MinLevelFiltersBelow) {
  std::vector<std::string> captured;
  SetLogSink([&captured](LogLevel, const std::string& line) {
    captured.push_back(line);
  });
  SetMinLogLevel(LogLevel::kERROR);
  ESHARP_LOG(INFO) << "dropped";
  ESHARP_LOG(WARN) << "dropped too";
  ESHARP_LOG(ERROR) << "kept";
  SetMinLogLevel(LogLevel::kINFO);
  SetLogSink(nullptr);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("kept"), std::string::npos);
}

// ---- ResourceMeter mirror -------------------------------------------------

TEST(ResourceMeterTest, MirrorsStageTotalsIntoGlobalRegistry) {
  ResourceMeter meter;
  meter.AddTime("ObsTestStage", 1.5);
  meter.AddIO("ObsTestStage", 100, 40);
  meter.AddRows("ObsTestStage", 7, 3);
  meter.SetParallelism("ObsTestStage", 8);
  ResourceMeter::StageStats stats = meter.Get("ObsTestStage");
  EXPECT_DOUBLE_EQ(stats.seconds, 1.5);
  EXPECT_EQ(stats.bytes_read, 100u);
  EXPECT_EQ(stats.rows_written, 3u);
  EXPECT_EQ(stats.parallelism, 8u);
#if ESHARP_OBS_ENABLED
  MetricsRegistry& global = MetricsRegistry::Global();
  const Labels stage{{"stage", "ObsTestStage"}};
  EXPECT_DOUBLE_EQ(global.GetGauge("resource.seconds", stage)->Value(), 1.5);
  EXPECT_DOUBLE_EQ(global.GetGauge("resource.bytes_read", stage)->Value(),
                   100.0);
  EXPECT_DOUBLE_EQ(global.GetGauge("resource.rows_written", stage)->Value(),
                   3.0);
  EXPECT_DOUBLE_EQ(global.GetGauge("resource.parallelism", stage)->Value(),
                   8.0);
#endif
}

// ---- Tracer ring bound (regression: events_ used to grow without bound) ---

TEST(TracerTest, RingCapsStorageAndCountsDrops) {
  Counter* global_dropped =
      MetricsRegistry::Global().GetCounter("trace.events_dropped");
  uint64_t global_before = global_dropped->Value();
  Tracer tracer(/*max_events=*/4);
  EXPECT_EQ(tracer.max_events(), 4u);
  for (int i = 0; i < 7; ++i) {
    Span s = tracer.StartSpan("span" + std::to_string(i));
  }
  // Storage stays at the cap no matter how many spans were recorded.
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(global_dropped->Value(), global_before + 3);
  // The survivors are the newest four, still in chronological order.
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "span" + std::to_string(i + 3));
    if (i > 0) {
      EXPECT_GE(events[i].start_us, events[i - 1].start_us);
    }
  }
  // Reset clears the ring and the per-tracer drop count.
  tracer.Reset();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  // A default-constructed tracer uses the documented large default.
  Tracer defaulted;
  EXPECT_EQ(defaulted.max_events(), Tracer::kDefaultMaxEvents);
}

TEST(TracerTest, RingExportsOnlyRetainedEvents) {
  Tracer tracer(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    Span s = tracer.StartSpan(i % 2 == 0 ? "even" : "odd");
  }
  std::string json = tracer.ExportChromeJson();
  // Retained: spans 3 ("odd") and 4 ("even") — exactly one of each name.
  EXPECT_NE(json.find("\"name\":\"odd\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"even\""), std::string::npos);
  EXPECT_EQ(tracer.Events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

// ---- Prometheus label escaping --------------------------------------------

TEST(MetricsRegistryTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  // The three characters the exposition format requires escaping: backslash,
  // double quote, and newline.
  registry.GetCounter("esc.c", {{"q", "say \"hi\""}})->Increment();
  registry.GetCounter("esc.c", {{"q", "back\\slash"}})->Increment(2);
  registry.GetCounter("esc.c", {{"q", "two\nlines"}})->Increment(3);
  std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("esc_c{q=\"say \\\"hi\\\"\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("esc_c{q=\"back\\\\slash\"} 2"), std::string::npos)
      << text;
  // Newlines must be escaped to the two-character sequence \n — a raw
  // newline inside a label value corrupts the line-oriented format.
  EXPECT_NE(text.find("esc_c{q=\"two\\nlines\"} 3"), std::string::npos)
      << text;
  for (size_t pos = text.find("esc_c{"); pos != std::string::npos;
       pos = text.find("esc_c{", pos + 1)) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    // Each sample stays on one physical line.
    EXPECT_EQ(text.substr(pos, eol - pos).find('\n'), std::string::npos);
  }
}

TEST(MetricsRegistryTest, JsonEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("jesc.c", {{"q", "a\"b\\c\nd"}})->Increment();
  std::string json = registry.ExportJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos) << json;
}

// ---- EventLog -------------------------------------------------------------

TEST(EventLogTest, RecordsStructuredEventsInOrder) {
  EventLog log(/*capacity=*/8);
  log.Add(LogLevel::kINFO, "serving", "snapshot published",
          {{"version", "1"}});
  log.Add(LogLevel::kERROR, "slo", "SLO breach: latency_p99",
          {{"short_burn", "2.5"}});
  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].source, "serving");
  EXPECT_EQ(events[0].fields[0].second, "1");
  EXPECT_EQ(events[1].severity, LogLevel::kERROR);
  EXPECT_GT(events[1].sequence, events[0].sequence);
  EXPECT_LE(events[0].time_seconds, events[1].time_seconds);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, RingOverwritesOldestAndCountsDrops) {
  EventLog log(/*capacity=*/3);
  for (int i = 0; i < 8; ++i) {
    log.Add(LogLevel::kINFO, "test", "event " + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 5u);
  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].message, "event 5");
  EXPECT_EQ(events[2].message, "event 7");
  std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"dropped\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("event 7"), std::string::npos);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  // Sequence numbers keep advancing across Clear().
  log.Add(LogLevel::kINFO, "test", "after clear");
  EXPECT_GT(log.Events()[0].sequence, 8u);
}

// ---- JobProgressRegistry --------------------------------------------------

TEST(JobProgressTest, TracksStagesAndOutcomes) {
  JobProgressRegistry registry;
  auto job = registry.Start("offline_pipeline");
  EXPECT_EQ(registry.num_active(), 1u);
  job->SetStage("cluster");
  job->SetFraction(0.4);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "offline_pipeline");
  EXPECT_EQ(snapshot[0].stage, "cluster");
  EXPECT_DOUBLE_EQ(snapshot[0].fraction, 0.4);
  EXPECT_FALSE(snapshot[0].finished);
  job->Finish("ok");
  job.reset();
  EXPECT_EQ(registry.num_active(), 0u);
  snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_TRUE(snapshot[0].finished);
  EXPECT_EQ(snapshot[0].outcome, "ok");
}

TEST(JobProgressTest, DroppedHandleMarksAborted) {
  JobProgressRegistry registry;
  { auto job = registry.Start("doomed"); }  // error path unwinds through it
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_TRUE(snapshot[0].finished);
  EXPECT_EQ(snapshot[0].outcome, "aborted");
  // Fractions clamp to [0, 1].
  auto job = registry.Start("clamped");
  job->SetFraction(7.0);
  EXPECT_DOUBLE_EQ(registry.Snapshot()[0].fraction, 1.0);
}

// ---- Export timestamps / SampleAll ----------------------------------------

TEST(MetricsRegistryTest, ExportsStampCaptureWallClock) {
  MetricsRegistry registry;
  registry.GetCounter("stamped")->Increment();
  std::string prom = registry.ExportPrometheus();
  EXPECT_EQ(prom.rfind("# captured_unix_ms ", 0), 0u) << prom;
  std::string json = registry.ExportJson();
  auto pos = json.find("\"captured_unix_ms\": ");
  ASSERT_NE(pos, std::string::npos) << json;
  long long ms = std::atoll(json.c_str() + pos + 20);
  EXPECT_GT(ms, 1500000000000LL);  // a real wall clock, not a steady one
  // Capture times are monotone non-decreasing across exports.
  std::string json2 = registry.ExportJson();
  auto pos2 = json2.find("\"captured_unix_ms\": ");
  ASSERT_NE(pos2, std::string::npos);
  EXPECT_GE(std::atoll(json2.c_str() + pos2 + 20), ms);
}

TEST(MetricsRegistryTest, SampleAllWalksEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("walk.counter", {{"shard", "s0"}})->Increment(7);
  registry.GetGauge("walk.gauge")->Set(2.5);
  registry.GetHistogram("walk.hist")->Observe(0.25);
  RegistrySample sample = registry.SampleAll();
  ASSERT_EQ(sample.counters.size(), 1u);
  EXPECT_EQ(sample.counters[0].key, "walk.counter{shard=\"s0\"}");
  EXPECT_EQ(sample.counters[0].name, "walk.counter");
  EXPECT_EQ(sample.counters[0].value, 7u);
  ASSERT_EQ(sample.gauges.size(), 1u);
  EXPECT_EQ(sample.gauges[0].key, "walk.gauge");
  EXPECT_DOUBLE_EQ(sample.gauges[0].value, 2.5);
  ASSERT_EQ(sample.histograms.size(), 1u);
  EXPECT_EQ(sample.histograms[0].snapshot.count, 1u);
}

// ---- Event filtering ------------------------------------------------------

TEST(EventLogTest, FilteredBySeverityCursorAndLimit) {
  EventLog log(/*capacity=*/16);
  log.Add(LogLevel::kDEBUG, "a", "noise");
  log.Add(LogLevel::kWARN, "a", "warned");
  log.Add(LogLevel::kERROR, "a", "broke");
  log.Add(LogLevel::kINFO, "a", "routine");

  EventFilter warnings;
  warnings.min_severity = LogLevel::kWARN;
  std::vector<Event> events = log.Filtered(warnings);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "warned");
  EXPECT_EQ(events[1].message, "broke");

  // Cursor: only events after the first fetch's next_after.
  EventFilter after;
  after.after_sequence = events[0].sequence;
  events = log.Filtered(after);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "broke");
  EXPECT_EQ(events[1].message, "routine");

  // Limit keeps the newest, not the oldest.
  EventFilter last_one;
  last_one.limit = 1;
  events = log.Filtered(last_one);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].message, "routine");
}

TEST(EventLogTest, RenderJsonCarriesCursorAndHonorsFilter) {
  EventLog log(/*capacity=*/8);
  log.Add(LogLevel::kINFO, "a", "kept-info");
  log.Add(LogLevel::kERROR, "a", "kept-error");
  EventFilter errors_only;
  errors_only.min_severity = LogLevel::kERROR;
  std::string json = log.RenderJson(errors_only);
  EXPECT_EQ(json.find("kept-info"), std::string::npos) << json;
  EXPECT_NE(json.find("kept-error"), std::string::npos);
  EXPECT_NE(json.find("\"next_after\":"), std::string::npos);
}

TEST(EventLogTest, ParseLogLevelAcceptsAliasesRejectsJunk) {
  LogLevel level = LogLevel::kDEBUG;
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWARN);
  EXPECT_TRUE(ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWARN);
  EXPECT_TRUE(ParseLogLevel("Error", &level));
  EXPECT_EQ(level, LogLevel::kERROR);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
}

// ---- Time series ----------------------------------------------------------

TEST(TimeSeriesTest, ManualClockSamplerIsDeterministic) {
  MetricsRegistry registry;
  double now = 100.0;
  TimeSeriesOptions options;
  options.registry = &registry;
  options.clock = [&now] { return now; };
  TimeSeriesStore store(options);

  Counter* requests = registry.GetCounter("ts.requests");
  Gauge* depth = registry.GetGauge("ts.depth");
  depth->Set(3);
  store.Sample();  // counters only baseline on their first observation
  now = 101.0;
  requests->Increment(10);
  depth->Set(5);
  store.Sample();
  now = 103.0;
  requests->Increment(30);
  store.Sample();

#if ESHARP_OBS_ENABLED
  EXPECT_EQ(store.samples_taken(), 3u);
  std::vector<TimeSeriesPoint> rate = store.Range("ts.requests");
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate[0].time_seconds, 101.0);
  EXPECT_DOUBLE_EQ(rate[0].value, 10.0);  // 10 in 1 s
  EXPECT_DOUBLE_EQ(rate[1].value, 15.0);  // 30 in 2 s
  std::vector<TimeSeriesPoint> gauge_points = store.Range("ts.depth");
  ASSERT_EQ(gauge_points.size(), 3u);
  EXPECT_DOUBLE_EQ(gauge_points[0].value, 3.0);
  EXPECT_DOUBLE_EQ(gauge_points[2].value, 5.0);
  SeriesWindowStats stats = store.Window("ts.requests");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.max, 15.0);
  EXPECT_DOUBLE_EQ(stats.last, 15.0);
  // Trailing window cuts on the newest point's time.
  EXPECT_EQ(store.Range("ts.depth", 1.5).size(), 1u);
#else
  // Compiled out: sampling retains nothing.
  EXPECT_EQ(store.samples_taken(), 0u);
  EXPECT_EQ(store.num_series(), 0u);
#endif
}

#if ESHARP_OBS_ENABLED
TEST(TimeSeriesTest, RingWrapsAtCapacity) {
  MetricsRegistry registry;
  double now = 0;
  TimeSeriesOptions options;
  options.registry = &registry;
  options.clock = [&now] { return now; };
  options.capacity = 4;
  TimeSeriesStore store(options);
  Gauge* gauge = registry.GetGauge("wrap");
  for (int i = 0; i < 10; ++i) {
    now = i;
    gauge->Set(i);
    store.Sample();
  }
  std::vector<TimeSeriesPoint> points = store.Range("wrap");
  ASSERT_EQ(points.size(), 4u);  // only the newest `capacity` retained
  EXPECT_DOUBLE_EQ(points[0].value, 6.0);  // oldest first
  EXPECT_DOUBLE_EQ(points[3].value, 9.0);
  EXPECT_EQ(store.capacity(), 4u);
}

TEST(TimeSeriesTest, CounterResetStartsAFreshBaseline) {
  MetricsRegistry registry;
  double now = 0;
  TimeSeriesOptions options;
  options.registry = &registry;
  options.clock = [&now] { return now; };
  TimeSeriesStore store(options);
  Counter* counter = registry.GetCounter("restart");
  counter->Increment(10);
  store.Sample();  // baseline at 10
  now = 1;
  counter->Increment(10);
  store.Sample();  // rate 10
  counter->Reset();
  counter->Increment(4);  // cumulative 4 < 20: the process "restarted"
  now = 2;
  store.Sample();
  std::vector<TimeSeriesPoint> points = store.Range("restart");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].value, 10.0);
  // Post-reset the cumulative value itself is the delta — no negative
  // spike, no absurd positive one.
  EXPECT_DOUBLE_EQ(points[1].value, 4.0);
}

TEST(TimeSeriesTest, HistogramDecomposesIntoQuantileSeries) {
  MetricsRegistry registry;
  double now = 0;
  TimeSeriesOptions options;
  options.registry = &registry;
  options.clock = [&now] { return now; };
  TimeSeriesStore store(options);
  Histogram* hist = registry.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) hist->Observe(i * 1e-3);
  store.Sample();
  std::vector<std::string> names = store.SeriesNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "lat.p50"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat.p95"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat.p99"), names.end());
  double p50 = store.Window("lat.p50").last;
  double p95 = store.Window("lat.p95").last;
  double p99 = store.Window("lat.p99").last;
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 0.2);  // same order as the data, not garbage
  std::string json = store.RenderJson("lat.");
  EXPECT_NE(json.find("\"kind\":\"quantile\""), std::string::npos) << json;
}

TEST(TimeSeriesTest, ConcurrentSampleAndReadIsSafe) {
  MetricsRegistry registry;
  TimeSeriesOptions options;
  options.registry = &registry;
  TimeSeriesStore store(options);
  Counter* counter = registry.GetCounter("hot");
  constexpr size_t kSamples = 1000;
  std::thread sampler([&] {
    for (size_t i = 0; i < kSamples; ++i) {
      counter->Increment();
      store.Sample();
    }
  });
  while (store.samples_taken() < kSamples) {
    (void)store.SeriesNames();
    (void)store.Range("hot");
    (void)store.Window("hot");
    (void)store.RenderJson();
  }
  sampler.join();
  EXPECT_EQ(store.samples_taken(), kSamples);
}
#endif  // ESHARP_OBS_ENABLED

TEST(TimeSeriesTest, BackgroundSamplerStartStop) {
  MetricsRegistry registry;
  TimeSeriesOptions options;
  options.registry = &registry;
  TimeSeriesStore store(options);
  registry.GetGauge("bg")->Set(1);
  store.Start(/*period_seconds=*/0.001);
#if ESHARP_OBS_ENABLED
  EXPECT_TRUE(store.running());
  for (int spin = 0; spin < 2000 && store.samples_taken() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(store.samples_taken(), 2u);
#else
  EXPECT_FALSE(store.running());  // no thread is ever spawned
#endif
  store.Stop();
  EXPECT_FALSE(store.running());
  store.Stop();  // idempotent
}

// ---- Flight recorder ------------------------------------------------------

// The recorder deliberately adopts bundles already in its directory (crash
// recovery), so every test gets a directory no prior run has written to.
std::string FreshBundleDir(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "fr_" + tag + "_" +
         std::to_string(WallUnixMillis()) + "_" + std::to_string(counter++);
}

#if ESHARP_OBS_ENABLED
TEST(FlightRecorderTest, TriggerWritesBundleWithEverySection) {
  MetricsRegistry registry;
  double now = 50.0;
  TimeSeriesOptions ts_options;
  ts_options.registry = &registry;
  ts_options.clock = [&now] { return now; };
  TimeSeriesStore store(ts_options);
  registry.GetCounter("bundle.requests")->Increment(5);
  store.Sample();
  now = 51.0;
  registry.GetCounter("bundle.requests")->Increment(5);
  store.Sample();

  EventLog events(/*capacity=*/8);
  events.Add(LogLevel::kWARN, "test", "something flapped");

  FlightRecorderOptions options;
  options.dir = FreshBundleDir("sections");
  options.timeseries = &store;
  options.events = &events;
  options.statusz = [] { return std::string("shard table\nwith \"quotes\""); };
  options.clock = [&now] { return now; };
  options.wall_clock_ms = [] { return int64_t{1700000000123}; };
  FlightRecorder recorder(options);

  auto path = recorder.Trigger("unit_test", "induced");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto content = ReadFileToString(*path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(content->find("\"detail\":\"induced\""), std::string::npos);
  EXPECT_NE(content->find("\"captured_unix_ms\":1700000000123"),
            std::string::npos);
  EXPECT_NE(content->find("bundle.requests"), std::string::npos);
  EXPECT_NE(content->find("something flapped"), std::string::npos);
  EXPECT_NE(content->find("shard table\\nwith \\\"quotes\\\""),
            std::string::npos);
  ASSERT_EQ(recorder.Bundles().size(), 1u);
  EXPECT_EQ(recorder.Bundles()[0].captured_unix_ms, 1700000000123);
  EXPECT_EQ(recorder.written(), 1u);
  // The trigger itself lands in the event log, pointing at the bundle.
  std::vector<Event> logged = events.Events();
  EXPECT_EQ(logged.back().message, "incident bundle written: unit_test");
}

TEST(FlightRecorderTest, AllowlistBoundsBundleToNamedPrefixes) {
  MetricsRegistry registry;
  double now = 0;
  TimeSeriesOptions ts_options;
  ts_options.registry = &registry;
  ts_options.clock = [&now] { return now; };
  TimeSeriesStore store(ts_options);
  registry.GetGauge("serving.depth")->Set(1);
  registry.GetGauge("cluster.noise")->Set(2);
  store.Sample();

  EventLog events(/*capacity=*/4);
  FlightRecorderOptions options;
  options.dir = FreshBundleDir("allowlist");
  options.timeseries = &store;
  options.events = &events;
  options.metric_allowlist = {"serving."};
  FlightRecorder recorder(options);
  auto path = recorder.Trigger("allowlist");
  ASSERT_TRUE(path.ok());
  auto content = ReadFileToString(*path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("serving.depth"), std::string::npos);
  EXPECT_EQ(content->find("cluster.noise"), std::string::npos) << *content;
}

TEST(FlightRecorderTest, RetentionKeepsNewestAcrossRestart) {
  std::string dir = FreshBundleDir("retention");
  EventLog events(/*capacity=*/4);
  int64_t wall = 1700000000000;
  FlightRecorderOptions options;
  options.dir = dir;
  options.max_bundles = 2;
  options.min_interval_seconds = 0;
  options.events = &events;
  options.wall_clock_ms = [&wall] { return wall; };
  std::vector<std::string> paths;
  {
    FlightRecorder recorder(options);
    for (int i = 0; i < 4; ++i) {
      wall += 1000;
      auto path = recorder.Trigger("burst");
      ASSERT_TRUE(path.ok());
      paths.push_back(*path);
    }
    std::vector<IncidentBundleInfo> kept = recorder.Bundles();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].sequence, 3u);
    EXPECT_EQ(kept[1].sequence, 4u);
    EXPECT_FALSE(ReadFileToString(paths[0]).ok());  // evicted from disk
    EXPECT_TRUE(ReadFileToString(paths[3]).ok());
  }
  // A fresh recorder over the same directory adopts the survivors and
  // keeps numbering after them.
  FlightRecorder revived(options);
  std::vector<IncidentBundleInfo> adopted = revived.Bundles();
  ASSERT_EQ(adopted.size(), 2u);
  EXPECT_EQ(adopted[1].sequence, 4u);
  wall += 1000;
  auto path = revived.Trigger("after_restart");
  ASSERT_TRUE(path.ok());
  std::vector<IncidentBundleInfo> after = revived.Bundles();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].sequence, 5u);
  EXPECT_FALSE(ReadFileToString(paths[2]).ok());  // oldest survivor evicted
}

TEST(FlightRecorderTest, DebounceSuppressesBackToBackTriggers) {
  EventLog events(/*capacity=*/4);
  double steady = 1000.0;
  FlightRecorderOptions options;
  options.dir = FreshBundleDir("debounce");
  options.min_interval_seconds = 10;
  options.events = &events;
  options.clock = [&steady] { return steady; };
  FlightRecorder recorder(options);
  EXPECT_TRUE(recorder.Trigger("first").ok());
  steady += 1;
  auto debounced = recorder.Trigger("storm");
  EXPECT_FALSE(debounced.ok());
  EXPECT_EQ(recorder.suppressed(), 1u);
  steady += 10;
  EXPECT_TRUE(recorder.Trigger("next_episode").ok());
  EXPECT_EQ(recorder.written(), 2u);
}

TEST(FlightRecorderTest, SloHookFiresOnBreachNotRecovery) {
  EventLog events(/*capacity=*/4);
  FlightRecorderOptions options;
  options.dir = FreshBundleDir("slohook");
  options.min_interval_seconds = 0;
  options.events = &events;
  FlightRecorder recorder(options);
  auto hook = recorder.SloAlertHook();

  SloState recovered;
  recovered.name = "error_rate";
  recovered.breached = false;
  hook(recovered);
  EXPECT_EQ(recorder.written(), 0u);

  SloState breached;
  breached.name = "error_rate";
  breached.breached = true;
  breached.short_burn = 2.5;
  breached.long_burn = 1.25;
  hook(breached);
  ASSERT_EQ(recorder.written(), 1u);
  std::vector<IncidentBundleInfo> bundles = recorder.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].reason, "slo_breach:error_rate");
  auto content = ReadFileToString(bundles[0].path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("burn short 2.50x long 1.25x"), std::string::npos)
      << *content;
}
#else  // !ESHARP_OBS_ENABLED
TEST(FlightRecorderTest, CompiledOutTriggerRefuses) {
  FlightRecorderOptions options;
  options.dir = FreshBundleDir("off");
  FlightRecorder recorder(options);
  EXPECT_FALSE(recorder.Trigger("anything").ok());
  EXPECT_TRUE(recorder.Bundles().empty());
  EXPECT_EQ(recorder.written(), 0u);
}
#endif  // ESHARP_OBS_ENABLED

TEST(ResourceMeterTest, CopyIsIndependent) {
  ResourceMeter meter;
  meter.AddTime("CopyStage", 1.0);
  ResourceMeter copy = meter;
  copy.AddTime("CopyStage", 2.0);
  EXPECT_DOUBLE_EQ(meter.Get("CopyStage").seconds, 1.0);
  EXPECT_DOUBLE_EQ(copy.Get("CopyStage").seconds, 3.0);
}

}  // namespace
}  // namespace esharp::obs
