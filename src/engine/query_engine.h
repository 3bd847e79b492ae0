#ifndef ROADNET_ENGINE_QUERY_ENGINE_H_
#define ROADNET_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "obs/histogram.h"
#include "obs/query_counters.h"
#include "routing/path.h"
#include "routing/path_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Per-batch execution metrics: the throughput view of the paper's
// per-query latency numbers (queries/sec is what a production service
// provisions by; the percentiles are what its SLOs are written against).
struct BatchStats {
  size_t num_queries = 0;
  size_t num_threads = 0;
  size_t chunk_size = 0;
  // Chunks a worker claimed from another worker's segment — nonzero when
  // the static split was unbalanced and stealing actually engaged.
  size_t stolen_chunks = 0;
  double wall_seconds = 0;
  double queries_per_second = 0;
  // Per-query latency percentiles in microseconds, derived from the
  // merged per-worker histograms (<= 1.6% bucket error; min/max exact).
  double p50_micros = 0;
  double p90_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;
  double max_micros = 0;
  // Operation counts summed over every query of the batch (all workers).
  QueryCounters counters;
};

struct BatchOptions {
  // Answer each query with PathQuery, which yields the path and its
  // distance from one search, instead of DistanceQuery (distances only).
  bool collect_paths = false;
  // Queries per stealable chunk; 0 picks a size from the batch and worker
  // counts. Small chunks balance better, large chunks amortize the atomic
  // claim.
  size_t chunk_size = 0;
  // Per-query tracing (obs/trace.h execute spans): stamp every query's
  // start/end as steady_clock nanoseconds relative to `trace_epoch` and
  // snapshot its counters into the per-query BatchResult vectors. Workers
  // write disjoint indices, so no synchronization beyond the batch join.
  bool record_per_query = false;
  std::chrono::steady_clock::time_point trace_epoch{};
};

struct BatchResult {
  // distances[i] answers queries[i] (kInfDistance if unreachable); in a
  // path batch it is the length of paths[i], from the same search.
  std::vector<Distance> distances;
  // paths[i] answers queries[i]; empty unless BatchOptions::collect_paths.
  std::vector<Path> paths;
  // Merged per-worker latency histogram in nanoseconds: every query is
  // timed. stats' percentiles derive from it, and histograms from
  // successive batches can be merged further.
  Histogram latency;
  // Per-query execute windows (nanoseconds since BatchOptions::trace_epoch)
  // and counters snapshots, indexed like `queries`; empty unless
  // BatchOptions::record_per_query. query_counters[i] is the one query
  // run for queries[i] (PathQuery in a path batch, else DistanceQuery).
  std::vector<uint64_t> query_start_ns;
  std::vector<uint64_t> query_end_ns;
  std::vector<QueryCounters> query_counters;
  BatchStats stats;
};

// Concurrent batch query executor over any PathIndex.
//
// A fixed pool of workers is spawned once per engine, each owning one
// QueryContext of the target index; batches are executed by splitting the
// query list into per-worker segments of cache-friendly contiguous
// chunks. Workers drain their own segment first and then steal chunks
// from the remaining segments of other workers, so a straggler (one
// worker hitting the batch's hardest queries) cannot idle the rest of the
// pool. Claiming is one fetch_add on the segment owner's cursor, making
// every chunk executed exactly once.
//
// Run() is synchronous and must not be called from two threads at once:
// the engine asserts on concurrent entry (builds with asserts enabled,
// which includes this repository's default Release flags, abort with a
// diagnostic; NDEBUG builds remain undefined behavior). The engine itself
// may be long-lived and reused across many batches.
class QueryEngine {
 public:
  // Spawns `num_threads` workers (>= 1; 0 is clamped to 1) with one fresh
  // context each. The index must outlive the engine and stay immutable
  // while batches run.
  QueryEngine(const PathIndex& index, size_t num_threads);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Executes the batch and blocks until every query is answered.
  BatchResult Run(std::span<const std::pair<VertexId, VertexId>> queries,
                  const BatchOptions& options = {});

  size_t NumThreads() const { return workers_.size(); }

 private:
  // One worker's claimable segment of the current batch. The cursor is
  // bumped by the owner and by thieves alike; claims past `end` are
  // harmless no-ops.
  struct alignas(64) Segment {
    std::atomic<size_t> cursor{0};
    size_t end = 0;
  };

  // The batch being executed, shared by all workers.
  struct Batch {
    std::span<const std::pair<VertexId, VertexId>> queries;
    BatchOptions options;
    size_t chunk_size = 1;
    std::vector<Segment> segments;
    std::atomic<size_t> stolen_chunks{0};
    // Output slots; indexed by query position, so workers never write the
    // same element and no synchronization is needed beyond the join.
    std::vector<Distance>* distances = nullptr;
    std::vector<Path>* paths = nullptr;
    // Per-query trace outputs; non-null only with record_per_query.
    std::vector<uint64_t>* query_start_ns = nullptr;
    std::vector<uint64_t>* query_end_ns = nullptr;
    std::vector<QueryCounters>* query_counters = nullptr;
  };

  struct Worker {
    std::thread thread;
    std::unique_ptr<QueryContext> context;
    // Per-worker observability sinks: only this worker writes them while
    // a batch runs (lock-free by construction); Run() resets them at
    // batch start and merges them after the join.
    Histogram histogram;
    QueryCounters counters;
  };

  // Worker main loop: wait for a batch epoch, drain it, report done.
  void WorkerLoop(size_t worker_id);

  // Executes chunks of `batch`, own segment first, then stealing.
  void DrainBatch(size_t worker_id, Batch* batch);

  // Runs queries [begin, end) of the batch on this worker's context.
  void RunChunk(size_t worker_id, Batch* batch, size_t begin, size_t end);

  const PathIndex& index_;
  std::vector<Worker> workers_;

  Mutex mu_;
  CondVar work_cv_;   // signals a new batch epoch or stop
  CondVar done_cv_;   // signals workers finishing a batch
  uint64_t epoch_ ROADNET_GUARDED_BY(mu_) = 0;  // bumped once per Run()
  // Workers still draining the batch.
  size_t active_workers_ ROADNET_GUARDED_BY(mu_) = 0;
  Batch* batch_ ROADNET_GUARDED_BY(mu_) = nullptr;
  bool stop_ ROADNET_GUARDED_BY(mu_) = false;
  // Reentrancy guard for Run(); see the class comment.
  std::atomic<bool> run_active_{false};
};

}  // namespace roadnet

#endif  // ROADNET_ENGINE_QUERY_ENGINE_H_
