#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

#include "util/rng.h"

namespace roadnet {

namespace {

constexpr const char* kStageNames[kNumTraceStages] = {
    "accept",        "frame_read", "enqueue",     "queue_wait",
    "batch_assembly", "execute",    "reply_write",
};

size_t RoundUpPow2(size_t n) {
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

// ---------------------------------------------------------------------------
// TraceRing

TraceRing::TraceRing(size_t capacity) {
  slots_.resize(RoundUpPow2(std::max<size_t>(capacity, 2)));
  mask_ = slots_.size() - 1;
}

bool TraceRing::TryPush(const RequestTrace& trace) {
  const uint64_t h = head_.load(std::memory_order_relaxed);
  // Acquire on tail_ orders this producer's slot write after the
  // consumer's copy-out of the slot it just freed.
  if (h - tail_.load(std::memory_order_acquire) >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[h & mask_] = trace;
  head_.store(h + 1, std::memory_order_release);
  return true;
}

size_t TraceRing::Drain(std::vector<RequestTrace>* out, size_t max) {
  const uint64_t t = tail_.load(std::memory_order_relaxed);
  // Acquire on head_ makes the producer's slot writes visible.
  const uint64_t h = head_.load(std::memory_order_acquire);
  const size_t n = std::min<size_t>(h - t, max);
  for (size_t i = 0; i < n; ++i) out->push_back(slots_[(t + i) & mask_]);
  tail_.store(t + n, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// JSONL writer

void AppendTraceJson(const RequestTrace& trace,
                     const char* (*status_name)(uint8_t), std::string* out) {
  char hex[24];
  snprintf(hex, sizeof(hex), "%016" PRIx64, trace.trace_id);
  out->append("{\"trace_id\":\"");
  out->append(hex);
  out->append("\",\"seq\":");
  AppendU64(out, trace.seq);
  out->append(",\"kind\":\"");
  switch (trace.kind) {
    case 1: out->append("path"); break;
    case 2: out->append("knn"); break;
    case 3: out->append("one_to_many"); break;
    default: out->append("distance"); break;
  }
  out->append("\",\"source\":");
  AppendU64(out, trace.source);
  out->append(",\"target\":");
  AppendU64(out, trace.target);
  out->append(",\"status\":\"");
  if (status_name != nullptr) {
    out->append(JsonEscape(status_name(trace.status)));
  } else {
    out->append("status-");
    AppendU64(out, trace.status);
  }
  out->append("\",\"sampled\":\"");
  if (trace.head_sampled && trace.slow) {
    out->append("head+slow");
  } else if (trace.head_sampled) {
    out->append("head");
  } else {
    out->append("slow");
  }
  out->append("\",\"total_ns\":");
  AppendU64(out, trace.total_ns);
  out->append(",\"counters\":{\"vertices_settled\":");
  AppendU64(out, trace.counters.vertices_settled);
  out->append(",\"edges_relaxed\":");
  AppendU64(out, trace.counters.edges_relaxed);
  out->append(",\"heap_pushes\":");
  AppendU64(out, trace.counters.heap_pushes);
  out->append(",\"heap_pops\":");
  AppendU64(out, trace.counters.heap_pops);
  out->append(",\"shortcuts_unpacked\":");
  AppendU64(out, trace.counters.shortcuts_unpacked);
  out->append(",\"edge_searches\":");
  AppendU64(out, trace.counters.edge_searches);
  out->append(",\"table_lookups\":");
  AppendU64(out, trace.counters.table_lookups);
  out->append(",\"tree_lookups\":");
  AppendU64(out, trace.counters.tree_lookups);
  out->append("},\"stages\":[");
  bool first = true;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const TraceStageRecord& r = trace.stages[i];
    if (!r.Present()) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"stage\":\"");
    out->append(kStageNames[i]);
    out->append("\",\"start_ns\":");
    AppendU64(out, r.start_ns);
    out->append(",\"end_ns\":");
    AppendU64(out, r.end_ns);
    out->push_back('}');
  }
  out->append("]}");
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(const TracerOptions& options)
    : epoch_(std::chrono::steady_clock::now()),
      id_seed_(options.id_seed),
      status_name_(options.status_name),
      sample_every_(options.sample_every),
      slow_micros_(options.slow_micros) {
  const size_t n = std::max<size_t>(options.shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(options.ring_capacity));
  }
}

Tracer::~Tracer() { StopExporter(); }

void Tracer::Configure(std::optional<uint64_t> sample_every,
                       std::optional<uint64_t> slow_micros) {
  if (sample_every) {
    sample_every_.store(*sample_every, std::memory_order_relaxed);
  }
  if (slow_micros) {
    slow_micros_.store(*slow_micros, std::memory_order_relaxed);
  }
}

void Tracer::StartRequest(RequestTrace* trace) {
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  const uint64_t slow = slow_micros_.load(std::memory_order_relaxed);
  if (every == 0 && slow == kTraceSlowDisabled) {
    // The whole cost an untraced request pays: two relaxed loads and
    // this store (bench_trace_overhead gates it).
    trace->active = false;
    return;
  }
  *trace = RequestTrace{};
  trace->seq = seq_.fetch_add(1, std::memory_order_relaxed);
  trace->trace_id = Rng(id_seed_ + trace->seq).Next();
  trace->head_sampled = every > 0 && trace->seq % every == 0;
  trace->epoch = epoch_;
  trace->active = true;
}

void Tracer::Finish(size_t shard, RequestTrace* trace) {
  if (!trace->active) return;
  trace->active = false;

  uint64_t first_start = ~0ull;
  uint64_t last_end = 0;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const TraceStageRecord& r = trace->stages[i];
    if (!r.Present()) continue;
    first_start = std::min(first_start, r.start_ns);
    last_end = std::max(last_end, r.end_ns);
  }
  trace->total_ns = last_end > first_start ? last_end - first_start : 0;

  const uint64_t slow_us = slow_micros_.load(std::memory_order_relaxed);
  trace->slow =
      slow_us != kTraceSlowDisabled && trace->total_ns >= slow_us * 1000;

  Shard& s = *shards_[shard];
  {
    MutexLock lock(s.mu);
    ++s.finished;
    if (trace->head_sampled) ++s.head_sampled;
    if (trace->slow) ++s.slow;
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      const TraceStageRecord& r = trace->stages[i];
      if (r.Present()) s.stage_hist[i].Record(r.end_ns - r.start_ns);
    }
    s.total_hist.Record(trace->total_ns);
    if ((trace->head_sampled || trace->slow) && s.ring.TryPush(*trace)) {
      ++s.captured;
    }
  }
  if (trace->head_sampled || trace->slow) {
    // Lock-free notify: the exporter waits with a 20ms timeout, so a
    // notify that races its drain window is only deferred, never lost.
    exporter_cv_.NotifyOne();
  }
}

bool Tracer::StartExporter(const std::string& path, std::string* error) {
  StopExporter();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open trace output file: " + path;
    }
    return false;
  }
  {
    MutexLock lock(exporter_mu_);
    export_path_ = path;
    export_file_ = f;
    exporter_stop_ = false;
    exporter_running_ = true;
    // Spawned while the lock is held, so a concurrent StopExporter
    // cannot observe exporter_running_ true with a stale (unjoinable)
    // thread handle: the new thread blocks on exporter_mu_ until the
    // handle is fully assigned.
    exporter_thread_ = std::thread([this] { ExporterLoop(); });
  }
  return true;
}

void Tracer::StopExporter() {
  std::thread to_join;
  {
    MutexLock lock(exporter_mu_);
    if (!exporter_running_) return;
    // Claim shutdown under the lock: exporter_running_ flips false and
    // the thread handle moves out *before* the join, so a concurrent
    // StopExporter (an explicit stop racing the destructor) returns
    // here instead of joining the same thread twice (which is
    // std::terminate).
    exporter_running_ = false;
    exporter_stop_ = true;
    to_join = std::move(exporter_thread_);
  }
  exporter_cv_.NotifyAll();
  to_join.join();
  // Final drain: everything Finish()ed before this call lands in the file.
  DrainAllToFile();
  {
    MutexLock lock(exporter_mu_);
    if (export_file_ != nullptr && !exporter_running_) {
      fclose(export_file_);
      export_file_ = nullptr;
    }
  }
}

bool Tracer::ExporterRunning() const {
  MutexLock lock(exporter_mu_);
  return exporter_running_;
}

void Tracer::ExporterLoop() {
  MutexLock lock(exporter_mu_);
  while (!exporter_stop_) {
    // Wake on capture or every 20ms; the timeout bounds how stale the
    // file can be when producers never notify (all slow, ring full).
    exporter_cv_.WaitFor(lock, std::chrono::milliseconds(20));
    lock.Unlock();
    DrainAllToFile();
    lock.Lock();
  }
}

size_t Tracer::DrainAllToFile() {
  std::vector<RequestTrace> batch;
  std::string line;
  size_t written = 0;
  for (auto& shard : shards_) {
    batch.clear();
    shard->ring.Drain(&batch, shard->ring.Capacity());
    for (const RequestTrace& t : batch) {
      line.clear();
      AppendTraceJson(t, status_name_, &line);
      line.push_back('\n');
      MutexLock lock(exporter_mu_);
      if (export_file_ == nullptr) return written;
      fwrite(line.data(), 1, line.size(), export_file_);
      ++written;
    }
  }
  if (written > 0) {
    MutexLock lock(exporter_mu_);
    if (export_file_ != nullptr) fflush(export_file_);
  }
  return written;
}

Tracer::Snapshot Tracer::GetSnapshot() const {
  Snapshot snap;
  Histogram merged[kNumTraceStages];
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    snap.finished += shard->finished;
    snap.captured += shard->captured;
    snap.head_sampled += shard->head_sampled;
    snap.slow += shard->slow;
    snap.dropped += shard->ring.Dropped();
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      merged[i].Merge(shard->stage_hist[i]);
    }
  }
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (merged[i].Count() == 0) continue;
    StageStat stat;
    stat.stage = static_cast<TraceStage>(i);
    stat.count = merged[i].Count();
    stat.p50_ns = merged[i].ValueAtQuantile(0.5);
    stat.p99_ns = merged[i].ValueAtQuantile(0.99);
    snap.stages.push_back(stat);
  }
  return snap;
}

void Tracer::ExportMetrics(
    MetricsRegistry* registry,
    std::vector<std::pair<std::string, std::string>> labels) const {
  Histogram merged[kNumTraceStages];
  Histogram total;
  uint64_t finished = 0, captured = 0, dropped = 0, head = 0, slow = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    finished += shard->finished;
    captured += shard->captured;
    head += shard->head_sampled;
    slow += shard->slow;
    dropped += shard->ring.Dropped();
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      merged[i].Merge(shard->stage_hist[i]);
    }
    total.Merge(shard->total_hist);
  }
  registry->Add("traces_finished", static_cast<double>(finished), labels);
  registry->Add("traces_captured", static_cast<double>(captured), labels);
  registry->Add("traces_dropped", static_cast<double>(dropped), labels);
  registry->Add("traces_head_sampled", static_cast<double>(head), labels);
  registry->Add("traces_slow", static_cast<double>(slow), labels);
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (merged[i].Count() == 0) continue;
    auto stage_labels = labels;
    stage_labels.emplace_back("stage", kStageNames[i]);
    registry->AddHistogram("trace_stage_micros", merged[i], 1e-3,
                           std::move(stage_labels));
  }
  if (total.Count() > 0) {
    registry->AddHistogram("trace_total_micros", total, 1e-3, labels);
  }
}

}  // namespace roadnet
