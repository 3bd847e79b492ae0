#ifndef ROADNET_OBS_TRACE_H_
#define ROADNET_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_counters.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Per-request lifecycle tracing (DESIGN.md "Request tracing").
//
// A request through the query server runs start to finish on its
// connection's event loop. Endpoint percentiles say *that* a request
// was slow; this subsystem says *where* — every request carries
// a RequestTrace whose stages (accept -> frame_read -> enqueue ->
// execute -> reply_write) are stamped with steady_clock nanoseconds
// relative to one Tracer epoch, so stage windows recorded by any thread
// line up on a single monotonic axis and never overlap.
//
// Capture policy is head + tail sampling: 1-in-N requests are chosen up
// front (deterministic in the request sequence number, ids seeded), and
// any request whose total latency reaches the slow threshold is captured
// regardless — the slow-query log never misses an outlier because the
// head sampler skipped it. Captured traces travel through lock-free
// SPSC ring buffers (one per event loop; the loop thread is the only
// producer, the exporter thread the only consumer) and are written as
// JSONL. Per-stage latency histograms are maintained for every traced
// request, sampled or not, and feed the STATS live-introspection
// reply.
//
// Every build carries the stamps; an idle tracer costs two relaxed loads
// per request, and bench_trace_overhead gates that cost at 2%.

// Lifecycle stages in pipeline order. Stage windows of one request are
// non-overlapping and monotonically ordered; gaps are allowed and are
// themselves diagnostic. The served path records accept, frame_read,
// enqueue, execute and reply_write. Nothing records queue_wait or
// batch_assembly; their ids and names stay so stage tables and trace
// files from older servers keep their meaning.
enum class TraceStage : uint8_t {
  kAccept = 0,         // accept(2) return -> loop's first read
  kFrameRead = 1,      // waiting for + reading the request frame
  kEnqueue = 2,        // frame buffered -> admitted or shed: the wait
                       // behind earlier frames of its read, decode,
                       // validate, admission checks
  kQueueWait = 3,      // not recorded (see above)
  kBatchAssembly = 4,  // not recorded (see above)
  kExecute = 5,        // the index call (per query in engine batches)
  kReplyWrite = 6,     // request counted, reply encoded and queued
};
inline constexpr size_t kNumTraceStages = 7;

const char* TraceStageName(TraceStage stage);

// Sentinel for "tail capture disabled" (TracerOptions::slow_micros). A
// threshold of 0 is meaningful: it captures every request.
inline constexpr uint64_t kTraceSlowDisabled = ~0ull;

struct TraceStageRecord {
  uint64_t start_ns = 0;  // nanoseconds since the Tracer epoch
  uint64_t end_ns = 0;
  // A stage never recorded keeps end_ns == 0 (a real stage end can only
  // be 0 in the epoch instant itself, which no request can hit: the
  // epoch predates the listening socket).
  bool Present() const { return end_ns != 0; }
};

// One request's trace, embedded in the server's per-request state. Plain
// value type: the owning loop thread writes it, and Finish() copies it
// into the shard ring.
struct RequestTrace {
  uint64_t trace_id = 0;
  uint64_t seq = 0;           // tracer-wide request sequence number
  bool active = false;        // runtime capture decision for this request
  bool head_sampled = false;  // chosen by the 1-in-N head sampler
  bool slow = false;          // set by Finish() against the threshold
  uint8_t kind = 0;  // 0 dist, 1 path (wire::QueryKind), 2 knn, 3 one-to-many
  uint8_t status = 0;         // wire::Status value
  uint32_t source = 0;
  uint32_t target = 0;
  uint64_t total_ns = 0;      // first stage start -> last stage end
  QueryCounters counters;     // engine snapshot for the execute stage
  TraceStageRecord stages[kNumTraceStages];
  std::chrono::steady_clock::time_point epoch{};

  // Nanoseconds since the tracer epoch; 0 when the trace is inactive so
  // an untraced request never reads the clock.
  uint64_t NowNs() const {
    if (!active) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

  void RecordStage(TraceStage stage, uint64_t start_ns, uint64_t end_ns) {
    if (!active) return;
    TraceStageRecord& r = stages[static_cast<size_t>(stage)];
    r.start_ns = start_ns;
    r.end_ns = end_ns;
  }
};

// Lock-free single-producer single-consumer ring of completed traces.
// The producer is the shard's event loop; the consumer is the exporter
// thread. A full ring drops the new trace (counted) rather than blocking
// the request path.
class TraceRing {
 public:
  // Capacity is rounded up to a power of two, minimum 2.
  explicit TraceRing(size_t capacity);

  // Producer side. False (and one dropped count) when full.
  bool TryPush(const RequestTrace& trace);

  // Consumer side: appends up to `max` traces to *out in FIFO order,
  // returns how many were taken.
  size_t Drain(std::vector<RequestTrace>* out, size_t max);

  uint64_t Dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t Capacity() const { return slots_.size(); }

 private:
  std::vector<RequestTrace> slots_;
  size_t mask_ = 0;
  // head_ is written only by the producer, tail_ only by the consumer;
  // each side acquire-reads the other's cursor, which orders the slot
  // copy against the cursor publication (classic SPSC ring).
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> dropped_{0};
};

struct TracerOptions {
  // Head sampling: capture every N-th request (0 disables). Sampling is
  // deterministic in the request sequence number, so a seeded run
  // captures the same requests every time.
  uint64_t sample_every = 0;
  // Tail capture: any request whose total latency is >= this many
  // microseconds is captured even when not head-sampled.
  // kTraceSlowDisabled turns tail capture off; 0 captures everything.
  uint64_t slow_micros = kTraceSlowDisabled;
  // Shard count: one per producer thread (the server's event loops).
  size_t shards = 8;
  // Per-shard ring capacity (rounded up to a power of two).
  size_t ring_capacity = 256;
  // Seed of the trace-id stream (SplitMix64 over the sequence number).
  uint64_t id_seed = 1;
  // Maps RequestTrace::status bytes to wire names for the JSONL export;
  // nullptr falls back to "status-<n>". Kept a function pointer so the
  // obs layer does not depend on server/wire.
  const char* (*status_name)(uint8_t) = nullptr;
};

// The per-process tracing hub: owns the shards (ring + per-stage
// histograms), the sampling decision, and the JSONL exporter thread.
// Thread-safety: Finish(shard, ...) is called by one thread per shard at
// a time; StartRequest, Configure, GetSnapshot, and the exporter may run
// concurrently with it.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Runtime reconfiguration (the wire TRACE_CONFIG frame): a nullopt
  // leaves that knob unchanged. Takes effect for subsequent requests.
  void Configure(std::optional<uint64_t> sample_every,
                 std::optional<uint64_t> slow_micros);

  // True when any capture mechanism is on (cheap: two relaxed loads).
  bool RuntimeEnabled() const {
    return sample_every_.load(std::memory_order_relaxed) > 0 ||
           slow_micros_.load(std::memory_order_relaxed) != kTraceSlowDisabled;
  }

  uint64_t SampleEvery() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  uint64_t SlowMicros() const {
    return slow_micros_.load(std::memory_order_relaxed);
  }

  // Arms `trace` for this request: assigns seq + trace id, applies the
  // head sampler, and stamps the epoch. When tracing is off (compiled
  // out or runtime-disabled) it only clears `active` — the cost a
  // served request pays with tracing idle, gated by
  // bench_trace_overhead.
  void StartRequest(RequestTrace* trace);

  // Completes the trace: computes the total, makes the tail (slow)
  // decision, records per-stage histograms, and pushes head-sampled/slow
  // traces into the ring of `shard` (< TracerOptions::shards; the
  // server passes the event loop's index). No-op for inactive traces.
  void Finish(size_t shard, RequestTrace* trace);

  // Nanoseconds since the tracer epoch (unconditional clock read; for
  // cold-path stamps like connection accept).
  uint64_t NowNs() const {
    return ToNs(std::chrono::steady_clock::now());
  }
  uint64_t ToNs(std::chrono::steady_clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }
  std::chrono::steady_clock::time_point Epoch() const { return epoch_; }

  // JSONL export: spawns the exporter thread appending completed traces
  // to `path` (truncates an existing file). False + *error if the file
  // cannot be opened. StopExporter drains every ring one final time and
  // closes the file; idempotent, also run by the destructor.
  bool StartExporter(const std::string& path, std::string* error);
  void StopExporter();

  // True while the exporter thread is live. Lets owners assert the
  // exporter's lifecycle (e.g. that a failed server Start did not leak
  // the thread).
  bool ExporterRunning() const;

  // --- Live introspection (the STATS payload) ---

  struct StageStat {
    TraceStage stage;
    uint64_t count = 0;
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
  };
  struct Snapshot {
    uint64_t finished = 0;      // active traces completed
    uint64_t captured = 0;      // pushed into a ring
    uint64_t dropped = 0;       // lost to a full ring
    uint64_t head_sampled = 0;
    uint64_t slow = 0;
    std::vector<StageStat> stages;  // stages with count > 0, pipeline order
  };
  Snapshot GetSnapshot() const;

  // Full per-stage histograms -> MetricsRegistry ("trace_stage_micros"
  // with a stage label, plus the capture counters).
  void ExportMetrics(
      MetricsRegistry* registry,
      std::vector<std::pair<std::string, std::string>> labels) const;

 private:
  struct Shard {
    explicit Shard(size_t ring_capacity) : ring(ring_capacity) {}
    // SPSC: the shard owner produces, the exporter consumes; the ring
    // synchronizes itself with its cursors, so it is not under `mu`.
    TraceRing ring;
    // Owner-written stats; the mutex is effectively uncontended (the
    // owner plus an occasional snapshot/export reader).
    mutable Mutex mu;
    Histogram stage_hist[kNumTraceStages] ROADNET_GUARDED_BY(mu);
    Histogram total_hist ROADNET_GUARDED_BY(mu);
    uint64_t finished ROADNET_GUARDED_BY(mu) = 0;
    uint64_t captured ROADNET_GUARDED_BY(mu) = 0;
    uint64_t head_sampled ROADNET_GUARDED_BY(mu) = 0;
    uint64_t slow ROADNET_GUARDED_BY(mu) = 0;
  };

  void ExporterLoop();
  // Drains every shard ring into the export file; returns traces written.
  size_t DrainAllToFile();

  const std::chrono::steady_clock::time_point epoch_;
  const uint64_t id_seed_;
  const char* (*const status_name_)(uint8_t);
  std::atomic<uint64_t> sample_every_;
  std::atomic<uint64_t> slow_micros_;
  std::atomic<uint64_t> seq_{0};

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex exporter_mu_;
  CondVar exporter_cv_;
  // The thread handle is guarded too: StopExporter claims it (moves it
  // out) under the lock, which is what makes concurrent stops safe —
  // exactly one caller joins, the rest see exporter_running_ false.
  std::thread exporter_thread_ ROADNET_GUARDED_BY(exporter_mu_);
  std::string export_path_ ROADNET_GUARDED_BY(exporter_mu_);
  FILE* export_file_ ROADNET_GUARDED_BY(exporter_mu_) = nullptr;
  bool exporter_stop_ ROADNET_GUARDED_BY(exporter_mu_) = false;
  bool exporter_running_ ROADNET_GUARDED_BY(exporter_mu_) = false;
};

// Serializes one completed trace as a single JSONL line (no trailing
// newline) — the slow-query-log record format, also consumed by
// tools/roadnet_trace and validated by scripts/validate_metrics.py.
// `status_name` may be nullptr (falls back to "status-<n>").
void AppendTraceJson(const RequestTrace& trace,
                     const char* (*status_name)(uint8_t), std::string* out);

}  // namespace roadnet

#endif  // ROADNET_OBS_TRACE_H_
