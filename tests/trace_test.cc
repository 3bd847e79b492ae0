// Request-tracing subsystem (obs/trace.h): the SPSC ring, the
// deterministic head sampler, the tail (slow) capture, the JSONL
// writer, concurrent multi-shard recording against a live exporter
// (the configuration the TSan stage runs), and the engine's per-query
// execute stamps.

#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dijkstra/bidirectional.h"
#include "engine/query_engine.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// A trace with one synthetic stage window so Finish() has a total.
RequestTrace MakeFinishedTrace(uint64_t start_ns, uint64_t end_ns) {
  RequestTrace trace;
  trace.active = true;
  trace.RecordStage(TraceStage::kExecute, start_ns, end_ns);
  return trace;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).Capacity(), 2u);
  EXPECT_EQ(TraceRing(1).Capacity(), 2u);
  EXPECT_EQ(TraceRing(3).Capacity(), 4u);
  EXPECT_EQ(TraceRing(256).Capacity(), 256u);
  EXPECT_EQ(TraceRing(257).Capacity(), 512u);
}

TEST(TraceRingTest, WraparoundKeepsFifoOrderAndCountsDrops) {
  TraceRing ring(4);
  std::vector<RequestTrace> out;

  // Fill, drain, refill across the wrap point several times: indices
  // keep increasing past capacity, exercising the masked slots.
  uint64_t next_seq = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      RequestTrace t;
      t.seq = next_seq++;
      ASSERT_TRUE(ring.TryPush(t));
    }
    out.clear();
    ASSERT_EQ(ring.Drain(&out, 16), 3u);
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_EQ(out[i].seq, out[i - 1].seq + 1);
    }
  }
  EXPECT_EQ(ring.Dropped(), 0u);

  // Overfill: the newest traces are the ones dropped, FIFO of the
  // accepted prefix is preserved.
  for (uint64_t i = 0; i < 6; ++i) {
    RequestTrace t;
    t.seq = 100 + i;
    const bool pushed = ring.TryPush(t);
    EXPECT_EQ(pushed, i < 4);
  }
  EXPECT_EQ(ring.Dropped(), 2u);
  out.clear();
  EXPECT_EQ(ring.Drain(&out, 2), 2u);  // partial drain honors `max`
  EXPECT_EQ(out[0].seq, 100u);
  EXPECT_EQ(out[1].seq, 101u);
  out.clear();
  EXPECT_EQ(ring.Drain(&out, 16), 2u);
  EXPECT_EQ(out[0].seq, 102u);
  EXPECT_EQ(out[1].seq, 103u);
}

TEST(TracerTest, HeadSamplingIsDeterministicInSeedAndSequence) {
  TracerOptions options;
  options.sample_every = 4;
  options.id_seed = 1234;
  options.shards = 1;

  // Two tracers with identical options assign identical ids and
  // identical sampling decisions to the same sequence positions.
  Tracer a(options), b(options);
  for (int i = 0; i < 64; ++i) {
    RequestTrace ta, tb;
    a.StartRequest(&ta);
    b.StartRequest(&tb);
    ASSERT_TRUE(ta.active);
    EXPECT_EQ(ta.seq, tb.seq);
    EXPECT_EQ(ta.trace_id, tb.trace_id);
    EXPECT_EQ(ta.head_sampled, tb.head_sampled);
    EXPECT_EQ(ta.head_sampled, ta.seq % 4 == 0);
    EXPECT_NE(ta.trace_id, 0u);
  }

  // A different seed produces a different id stream.
  TracerOptions reseeded = options;
  reseeded.id_seed = 99;
  Tracer c(reseeded);
  RequestTrace t0, t0c;
  Tracer d(options);
  d.StartRequest(&t0);
  c.StartRequest(&t0c);
  EXPECT_NE(t0.trace_id, t0c.trace_id);
}

TEST(TracerTest, RuntimeOffSkipsRequestsEntirely) {
  TracerOptions options;  // sample_every 0, slow disabled: runtime off
  options.shards = 1;
  Tracer tracer(options);
  EXPECT_FALSE(tracer.RuntimeEnabled());

  RequestTrace trace;
  tracer.StartRequest(&trace);
  EXPECT_FALSE(trace.active);
  EXPECT_EQ(trace.NowNs(), 0u);  // inactive: no clock reads
  trace.RecordStage(TraceStage::kExecute, 1, 2);
  EXPECT_FALSE(trace.stages[static_cast<size_t>(TraceStage::kExecute)]
                   .Present());
  tracer.Finish(0, &trace);  // no-op for inactive traces
  EXPECT_EQ(tracer.GetSnapshot().finished, 0u);
}

TEST(TracerTest, ConfigureTogglesCaptureAtRuntime) {
  TracerOptions options;
  options.shards = 1;
  Tracer tracer(options);
  EXPECT_FALSE(tracer.RuntimeEnabled());

  tracer.Configure(8, std::nullopt);
  EXPECT_TRUE(tracer.RuntimeEnabled());
  EXPECT_EQ(tracer.SampleEvery(), 8u);
  EXPECT_EQ(tracer.SlowMicros(), kTraceSlowDisabled);

  tracer.Configure(std::nullopt, 500);
  EXPECT_EQ(tracer.SampleEvery(), 8u);  // nullopt leaves the knob alone
  EXPECT_EQ(tracer.SlowMicros(), 500u);

  tracer.Configure(0, kTraceSlowDisabled);
  EXPECT_FALSE(tracer.RuntimeEnabled());
  RequestTrace trace;
  tracer.StartRequest(&trace);
  EXPECT_FALSE(trace.active);
}

TEST(TracerTest, SlowThresholdZeroCapturesUnsampledRequests) {
  TracerOptions options;
  options.sample_every = 0;  // head sampler off
  options.slow_micros = 0;   // ...but everything counts as slow
  options.shards = 1;
  Tracer tracer(options);

  for (int i = 0; i < 10; ++i) {
    RequestTrace trace;
    tracer.StartRequest(&trace);
    ASSERT_TRUE(trace.active);
    EXPECT_FALSE(trace.head_sampled);
    const uint64_t now = trace.NowNs();
    trace.RecordStage(TraceStage::kExecute, now, now + 1000);
    tracer.Finish(0, &trace);
    EXPECT_TRUE(trace.slow);
  }

  const Tracer::Snapshot snap = tracer.GetSnapshot();
  EXPECT_EQ(snap.finished, 10u);
  EXPECT_EQ(snap.captured, 10u);
  EXPECT_EQ(snap.slow, 10u);
  EXPECT_EQ(snap.head_sampled, 0u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.stages.size(), 1u);
  EXPECT_EQ(snap.stages[0].stage, TraceStage::kExecute);
  EXPECT_EQ(snap.stages[0].count, 10u);
}

TEST(TracerTest, SlowThresholdSeparatesFastFromSlow) {
  TracerOptions options;
  options.slow_micros = 10;  // 10us threshold
  options.shards = 1;
  Tracer tracer(options);

  RequestTrace fast = MakeFinishedTrace(100, 100 + 9 * 1000);
  tracer.Finish(0, &fast);
  EXPECT_FALSE(fast.slow);
  EXPECT_EQ(fast.total_ns, 9000u);

  RequestTrace slow = MakeFinishedTrace(100, 100 + 11 * 1000);
  tracer.Finish(0, &slow);
  EXPECT_TRUE(slow.slow);

  const Tracer::Snapshot snap = tracer.GetSnapshot();
  EXPECT_EQ(snap.finished, 2u);
  EXPECT_EQ(snap.captured, 1u);  // only the slow one crossed the bar
  EXPECT_EQ(snap.slow, 1u);
}

const char* TestStatusName(uint8_t status) {
  return status == 0 ? "ok" : "unreachable";
}

TEST(TraceJsonTest, RendersSchemaFieldsAndSkipsAbsentStages) {
  RequestTrace trace;
  trace.trace_id = 0xabcdef0102030405ull;
  trace.seq = 7;
  trace.kind = 1;  // path
  trace.status = 0;
  trace.source = 11;
  trace.target = 22;
  trace.head_sampled = true;
  trace.slow = true;
  trace.total_ns = 4242;
  trace.counters.vertices_settled = 17;
  trace.stages[static_cast<size_t>(TraceStage::kFrameRead)] = {100, 200};
  trace.stages[static_cast<size_t>(TraceStage::kExecute)] = {300, 400};

  std::string json;
  AppendTraceJson(trace, &TestStatusName, &json);
  EXPECT_NE(json.find("\"trace_id\":\"abcdef0102030405\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"path\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":11"), std::string::npos);
  EXPECT_NE(json.find("\"target\":22"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":\"head+slow\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":4242"), std::string::npos);
  EXPECT_NE(json.find("\"vertices_settled\":17"), std::string::npos);
  EXPECT_NE(json.find("{\"stage\":\"frame_read\",\"start_ns\":100,"
                      "\"end_ns\":200}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"stage\":\"execute\",\"start_ns\":300,"
                      "\"end_ns\":400}"),
            std::string::npos);
  // Absent stages are omitted, not emitted with zeros.
  EXPECT_EQ(json.find("\"accept\""), std::string::npos);
  EXPECT_EQ(json.find("\"queue_wait\""), std::string::npos);

  // Without a status-name mapper the raw byte is rendered.
  trace.status = 3;
  trace.head_sampled = false;
  std::string fallback;
  AppendTraceJson(trace, nullptr, &fallback);
  EXPECT_NE(fallback.find("\"status\":\"status-3\""), std::string::npos);
  EXPECT_NE(fallback.find("\"sampled\":\"slow\""), std::string::npos);
}

TEST(TracerTest, ConcurrentShardsRecordCleanlyWithLiveExporter) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 1000;
  constexpr uint64_t kSampleEvery = 4;

  TracerOptions options;
  options.sample_every = kSampleEvery;
  options.shards = kThreads;
  // Large enough that even a pathological schedule (one thread drawing
  // every sampled sequence number) cannot overflow a ring before the
  // exporter drains it: dropped must end at exactly 0.
  options.ring_capacity = kPerThread;
  options.id_seed = 77;
  options.status_name = &TestStatusName;
  Tracer tracer(options);

  const std::string path = testing::TempDir() + "/trace_test_export.jsonl";
  std::string error;
  ASSERT_TRUE(tracer.StartExporter(path, &error)) << error;

  // Thread t is the only producer into shard t (the server's shape: one
  // shard per event loop).
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, shard = t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        RequestTrace trace;
        tracer.StartRequest(&trace);
        const uint64_t start_ns = trace.NowNs();
        trace.RecordStage(TraceStage::kExecute, start_ns, trace.NowNs());
        tracer.Finish(shard, &trace);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.StopExporter();

  const Tracer::Snapshot snap = tracer.GetSnapshot();
  EXPECT_EQ(snap.finished, kThreads * kPerThread);
  EXPECT_EQ(snap.head_sampled, kThreads * kPerThread / kSampleEvery);
  EXPECT_EQ(snap.captured, snap.head_sampled);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.slow, 0u);

  // Every captured trace is one JSONL line in the export file.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  size_t lines = 0;
  bool all_have_ids = true;
  std::string line;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    ++lines;
    if (line.find("\"trace_id\":\"") == std::string::npos) {
      all_have_ids = false;
    }
    line.clear();
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, snap.captured);
  EXPECT_TRUE(all_have_ids);
}

TEST(TracerTest, EngineStampsPerQueryExecuteWindows) {
  const Graph g = TestNetwork(200, 31);
  BidirectionalDijkstra index(g);
  QueryEngine engine(index, 4);
  const auto queries = RandomPairs(g, 64, 17);

  BatchOptions options;
  options.record_per_query = true;
  options.trace_epoch = std::chrono::steady_clock::now();
  const BatchResult result = engine.Run(queries, options);

  ASSERT_EQ(result.query_start_ns.size(), queries.size());
  ASSERT_EQ(result.query_end_ns.size(), queries.size());
  ASSERT_EQ(result.query_counters.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GT(result.query_start_ns[i], 0u) << i;
    EXPECT_GE(result.query_end_ns[i], result.query_start_ns[i]) << i;
    if (queries[i].first != queries[i].second) {
      EXPECT_GT(result.query_counters[i].vertices_settled, 0u) << i;
    }
  }

  // Without record_per_query the vectors stay empty (no hidden cost).
  const BatchResult plain = engine.Run(queries);
  EXPECT_TRUE(plain.query_start_ns.empty());
  EXPECT_TRUE(plain.query_end_ns.empty());
  EXPECT_TRUE(plain.query_counters.empty());
}

TEST(TracerTest, ConcurrentStopExporterJoinsExactlyOnce) {
  // Regression: StopExporter used to clear exporter_running_ only AFTER
  // joining, so two concurrent stops (an explicit stop racing the
  // destructor) both passed the running check and both joined the
  // exporter thread — the second join is std::terminate. The fix claims
  // the thread handle under exporter_mu_, so exactly one caller joins.
  for (int round = 0; round < 20; ++round) {
    TracerOptions options;
    options.sample_every = 1;
    options.shards = 1;
    Tracer tracer(options);
    const std::string path =
        testing::TempDir() + "/trace_concurrent_stop.jsonl";
    std::string error;
    ASSERT_TRUE(tracer.StartExporter(path, &error)) << error;
    ASSERT_TRUE(tracer.ExporterRunning());

    constexpr size_t kStoppers = 4;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kStoppers; ++t) {
      threads.emplace_back([&tracer] { tracer.StopExporter(); });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_FALSE(tracer.ExporterRunning());
    // A fresh start after the pile-up must still work.
    ASSERT_TRUE(tracer.StartExporter(path, &error)) << error;
    tracer.StopExporter();
  }
}

}  // namespace
}  // namespace roadnet
