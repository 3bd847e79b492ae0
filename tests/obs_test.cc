// Observability primitives: histogram bucket geometry and percentile
// semantics (pinned against hand-computed values), the heap a histogram
// holds (counted by the replaced global operator new and delete of
// tests/counting_allocator.h), counter arithmetic, and the metrics
// writers' escaping and edge cases.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_counters.h"
#include "tests/counting_allocator.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// The documented precision contract: every reported quantile is within
// 1/2^kPrecisionBits of the true rank value.
constexpr double kRelError = 1.0 / Histogram::kSubBuckets;

// ---------------------------------------------------------------- Histogram

TEST(Histogram, EmptyReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below 2^kPrecisionBits land in unit-width buckets, so every
  // quantile of 1..10 is the exact rank statistic.
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 10u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 10u);
  EXPECT_EQ(h.Sum(), 55.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
  // rank = ceil(q * 10): p50 -> 5th smallest = 5, p90 -> 9, p99 -> 10.
  EXPECT_EQ(h.ValueAtQuantile(0.50), 5u);
  EXPECT_EQ(h.ValueAtQuantile(0.90), 9u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 10u);
}

TEST(Histogram, DocumentedPercentilesOnKnownList) {
  // 1000 latencies 1us..1000us (recorded in nanos): true p50 = 500us,
  // p90 = 900us, p99 = 990us, p999 = 999us; each reported within the
  // bucket precision, min and max exact.
  Histogram h;
  for (uint64_t us = 1; us <= 1000; ++us) h.Record(us * 1000);
  EXPECT_EQ(h.Min(), 1000u);
  EXPECT_EQ(h.Max(), 1000000u);
  EXPECT_NEAR(h.ValueAtQuantile(0.50), 500e3, 500e3 * kRelError);
  EXPECT_NEAR(h.ValueAtQuantile(0.90), 900e3, 900e3 * kRelError);
  EXPECT_NEAR(h.ValueAtQuantile(0.99), 990e3, 990e3 * kRelError);
  EXPECT_NEAR(h.ValueAtQuantile(0.999), 999e3, 999e3 * kRelError);
}

TEST(Histogram, QuantileEdgesReturnExactMinAndMax) {
  Histogram h;
  h.Record(12345);
  h.Record(67891);
  h.Record(99999999);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 12345u);
  EXPECT_EQ(h.ValueAtQuantile(-1.0), 12345u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 99999999u);
  EXPECT_EQ(h.ValueAtQuantile(2.0), 99999999u);
  // Interior quantiles never escape [Min, Max] even though a bucket
  // midpoint could exceed the largest recorded value.
  EXPECT_LE(h.ValueAtQuantile(0.999), 99999999u);
  EXPECT_GE(h.ValueAtQuantile(0.001), 12345u);
}

TEST(Histogram, MergedWorkersEqualSingleHistogram) {
  // Four per-worker histograms over an interleaved value stream must merge
  // into exactly the histogram a single recorder would have produced —
  // the property QueryEngine's per-worker design rests on.
  Histogram single;
  Histogram workers[4];
  uint64_t v = 17;
  for (int i = 0; i < 4000; ++i) {
    v = v * 2862933555777941757ull + 3037000493ull;  // deterministic walk
    const uint64_t value = v % 10000000;
    single.Record(value);
    workers[i % 4].Record(value);
  }
  Histogram merged;
  for (const Histogram& w : workers) merged.Merge(w);

  EXPECT_EQ(merged.Count(), single.Count());
  EXPECT_EQ(merged.Min(), single.Min());
  EXPECT_EQ(merged.Max(), single.Max());
  EXPECT_DOUBLE_EQ(merged.Sum(), single.Sum());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.ValueAtQuantile(q), single.ValueAtQuantile(q)) << q;
  }
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(500);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
}

// An empty histogram merges as a no-op in either direction, and two
// empty ones merge into one that still reports zeros.
TEST(Histogram, EmptyHistogramsMergeAndAnswerAsBefore) {
  Histogram recorded;
  for (uint64_t v : {3ull, 70ull, 4096ull, 123456ull}) recorded.Record(v);
  Histogram with_empty = recorded;
  with_empty.Merge(Histogram());
  Histogram into_empty;
  into_empty.Merge(recorded);
  for (const Histogram* h : {&with_empty, &into_empty}) {
    EXPECT_EQ(h->Count(), 4u);
    EXPECT_EQ(h->Min(), 3u);
    EXPECT_EQ(h->Max(), 123456u);
    EXPECT_DOUBLE_EQ(h->Sum(), recorded.Sum());
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      EXPECT_EQ(h->ValueAtQuantile(q), recorded.ValueAtQuantile(q)) << q;
    }
  }
  Histogram empty;
  empty.Merge(Histogram());
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_EQ(empty.Min(), 0u);
  EXPECT_EQ(empty.Max(), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(empty.ValueAtQuantile(1.0), 0u);
}

// A histogram that never counts a value owns no buckets, whatever else
// is asked of it; the first value allocates them, and Reset keeps them
// for the next batch.
TEST(Histogram, NeverRecordedOwnsNoBucketBytes) {
  const size_t before = LiveHeapBytes();
  Histogram h;
  h.Merge(Histogram());
  h.Reset();
  const uint64_t p50 = h.ValueAtQuantile(0.5);
  const size_t idle = LiveHeapBytes() - before;
  h.Record(42);
  const size_t recorded = LiveHeapBytes() - before;
  h.Reset();
  const size_t reset = LiveHeapBytes() - before;
  EXPECT_EQ(p50, 0u);
  EXPECT_EQ(idle, 0u);
  EXPECT_EQ(recorded, Histogram::kNumBuckets * sizeof(uint64_t));
  EXPECT_EQ(reset, recorded);
  Histogram merged;
  const size_t merged_before = LiveHeapBytes();
  merged.Merge(h);
  EXPECT_EQ(LiveHeapBytes(), merged_before);
  h.Record(7);
  merged.Merge(h);
  EXPECT_EQ(LiveHeapBytes() - merged_before,
            Histogram::kNumBuckets * sizeof(uint64_t));
}

TEST(Histogram, BucketGeometry) {
  // Exact range: identity buckets.
  for (uint64_t v : {0ull, 1ull, 7ull, 63ull}) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLow(v), v);
    EXPECT_EQ(Histogram::BucketMid(v), v);
  }
  // Beyond it: every value lands in its bucket, and the bucket midpoint
  // is within the documented relative error of the value.
  const std::vector<uint64_t> values = {
      64,         65,   100,    127,       128,
      1000,       123456, 999999937, (uint64_t{1} << 40) + 12345,
      std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    const size_t i = Histogram::BucketIndex(v);
    ASSERT_LT(i, Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::BucketLow(i), v) << v;
    if (i + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketLow(i + 1), v) << v;
    }
    const double mid = static_cast<double>(Histogram::BucketMid(i));
    EXPECT_NEAR(mid, static_cast<double>(v),
                static_cast<double>(v) * kRelError + 1)
        << v;
  }
}

// ------------------------------------------------------------ QueryCounters

TEST(QueryCounters, AccumulateAndReset) {
  QueryCounters a;
  a.Settle(3);
  a.RelaxEdge();
  a.HeapPush(2);
  a.HeapPop();
  a.ShortcutUnpacked(4);
  a.TableLookup(5);
  a.TreeLookup(6);
  QueryCounters b = a;
  b += a;
  EXPECT_EQ(b.vertices_settled, 6u);
  EXPECT_EQ(b.edges_relaxed, 2u);
  EXPECT_EQ(b.heap_pushes, 4u);
  EXPECT_EQ(b.heap_pops, 2u);
  EXPECT_EQ(b.shortcuts_unpacked, 8u);
  EXPECT_EQ(b.table_lookups, 10u);
  EXPECT_EQ(b.tree_lookups, 12u);
  b.Reset();
  EXPECT_EQ(b, QueryCounters{});
}

// ---------------------------------------------------------------- CsvEscape

TEST(CsvEscape, PlainFieldPassesThrough) {
  EXPECT_EQ(CsvEscape("plain_field-1.5"), "plain_field-1.5");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscape, CommaAndNewlineWrapInQuotes) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(CsvEscape("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvEscape, EmbeddedQuotesAreDoubled) {
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("\""), "\"\"\"\"");
}

// ---------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, JsonlEscapesAndFormats) {
  MetricsRegistry m;
  m.Add("plain", 70);
  m.Add("quote\"name", 0.5, {{"k\"ey", "va\nlue"}});
  std::ostringstream out;
  m.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"name\":\"plain\",\"value\":70}\n"
            "{\"name\":\"quote\\\"name\",\"value\":0.5,"
            "\"labels\":{\"k\\\"ey\":\"va\\nlue\"}}\n");
}

TEST(MetricsRegistry, JsonlWritesNonFiniteAsNull) {
  MetricsRegistry m;
  m.Add("nan", std::nan(""));
  m.Add("inf", std::numeric_limits<double>::infinity());
  m.Add("ninf", -std::numeric_limits<double>::infinity());
  std::ostringstream out;
  m.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"name\":\"nan\",\"value\":null}\n"
            "{\"name\":\"inf\",\"value\":null}\n"
            "{\"name\":\"ninf\",\"value\":null}\n");
}

TEST(MetricsRegistry, EmptySnapshots) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  std::ostringstream jsonl, csv;
  m.WriteJsonl(jsonl);
  m.WriteCsv(csv);
  EXPECT_EQ(jsonl.str(), "");
  EXPECT_EQ(csv.str(), "name,value,labels\n");  // header only
}

TEST(MetricsRegistry, CsvEscapesLabelsAndNonFinite) {
  MetricsRegistry m;
  m.Add("a,b", std::nan(""), {{"k", "v,w"}});
  m.Add("up", std::numeric_limits<double>::infinity());
  m.Add("down", -std::numeric_limits<double>::infinity(), {{"x", "1"}, {"y", "2"}});
  std::ostringstream out;
  m.WriteCsv(out);
  EXPECT_EQ(out.str(),
            "name,value,labels\n"
            "\"a,b\",nan,\"k=v,w\"\n"
            "up,inf,\n"
            "down,-inf,x=1;y=2\n");
}

TEST(MetricsRegistry, AddCountersEmitsEveryField) {
  QueryCounters c;
  c.Settle(11);
  c.TreeLookup(7);
  MetricsRegistry m;
  m.AddCounters(c, {{"method", "CH"}});
  ASSERT_EQ(m.points().size(), 8u);
  EXPECT_EQ(m.points()[0].name, "vertices_settled");
  EXPECT_EQ(m.points()[0].value, 11.0);
  EXPECT_EQ(m.points()[7].name, "tree_lookups");
  EXPECT_EQ(m.points()[7].value, 7.0);
  for (const MetricPoint& p : m.points()) {
    ASSERT_EQ(p.labels.size(), 1u);
    EXPECT_EQ(p.labels[0].second, "CH");
  }
}

TEST(MetricsRegistry, AddCountersScalesAndSuffixesNames) {
  QueryCounters c;
  c.Settle(30);
  c.HeapPush(3);
  MetricsRegistry m;
  m.AddCounters(c, {{"set", "Q1"}}, 1.0 / 3, "_per_query");
  ASSERT_EQ(m.points().size(), 8u);
  EXPECT_EQ(m.points()[0].name, "vertices_settled_per_query");
  EXPECT_DOUBLE_EQ(m.points()[0].value, 10.0);
  EXPECT_EQ(m.points()[2].name, "heap_pushes_per_query");
  EXPECT_DOUBLE_EQ(m.points()[2].value, 1.0);
  EXPECT_EQ(m.points()[7].name, "tree_lookups_per_query");
  EXPECT_EQ(m.points()[7].value, 0.0);
}

TEST(MetricsRegistry, AddHistogramEmitsSummaryPoints) {
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v * 1000);
  MetricsRegistry m;
  m.AddHistogram("latency_us", h, 1e-3);
  ASSERT_EQ(m.points().size(), 8u);
  EXPECT_EQ(m.points()[0].name, "latency_us_count");
  EXPECT_EQ(m.points()[0].value, 10.0);
  EXPECT_EQ(m.points()[1].name, "latency_us_min");
  EXPECT_DOUBLE_EQ(m.points()[1].value, 1.0);  // 1000ns scaled to 1us
  EXPECT_EQ(m.points()[7].name, "latency_us_max");
  EXPECT_DOUBLE_EQ(m.points()[7].value, 10.0);
}

TEST(MetricsRegistry, WriteFileDispatchesOnExtension) {
  MetricsRegistry m;
  m.Add("x", 1);
  const std::string dir = ::testing::TempDir();
  const std::string csv_path = dir + "/obs_test_metrics.csv";
  const std::string jsonl_path = dir + "/obs_test_metrics.jsonl";
  ASSERT_TRUE(m.WriteFile(csv_path));
  ASSERT_TRUE(m.WriteFile(jsonl_path));

  std::ifstream csv(csv_path);
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "name,value,labels");

  std::ifstream jsonl(jsonl_path);
  std::getline(jsonl, first);
  EXPECT_EQ(first, "{\"name\":\"x\",\"value\":1}");

  EXPECT_FALSE(m.WriteFile(dir + "/no/such/dir/metrics.jsonl"));
}

}  // namespace
}  // namespace roadnet
