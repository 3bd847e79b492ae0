#ifndef ROADNET_SERVER_SERVER_H_
#define ROADNET_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "knn/ier.h"
#include "knn/knn_index.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/query_counters.h"
#include "obs/trace.h"
#include "poi/poi_set.h"
#include "routing/path_index.h"
#include "server/event_loop.h"
#include "server/socket.h"
#include "server/wire.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roadnet {

// Optional kNN / one-to-many serving backends. All-null = the server
// answers only point-to-point queries (KNN_QUERY gets BAD_REQUEST).
// `bucket` and `pois` enable the family; `ier` additionally enables
// method=ier. All referents must outlive the server.
struct KnnServing {
  const PoiSet* pois = nullptr;
  const KnnBucketIndex* bucket = nullptr;
  const IerKnnIndex* ier = nullptr;

  bool Enabled() const { return pois != nullptr && bucket != nullptr; }
};

struct ServerOptions {
  uint16_t port = 0;             // 0 = ephemeral (read back via Port())
  size_t max_connections = 64;   // accept cap; excess conns closed at once
  // --- Event-loop front-end (src/server/event_loop.h) ---
  // Epoll event loops sharing the accepts. Each runs its requests to
  // completion, so this is also the server's only thread count.
  size_t num_loops = 2;
  // Per-connection write-queue caps: above soft the loop stops reading
  // the connection; requests decoded while the queue is above hard are
  // shed with OVERLOADED.
  size_t write_queue_soft_cap = 256u << 10;
  size_t write_queue_hard_cap = 1u << 20;
  uint64_t idle_timeout_ms = 0;  // reap idle connections (0 = never)
  int sndbuf_bytes = 0;          // SO_SNDBUF per conn (0 = kernel default)
  // --- Request tracing (obs/trace.h; all runtime-retunable via the
  // TRACE_CONFIG frame). Both capture knobs off = tracing idle: every
  // request pays only the StartRequest early-out.
  uint64_t trace_sample_every = 0;  // head sampling, 1-in-N (0 = off)
  uint64_t trace_slow_us = kTraceSlowDisabled;  // tail capture threshold
  std::string trace_out;            // JSONL slow-query log ("" = no export)
  uint64_t trace_seed = 1;           // trace-id stream seed
};

// Long-running TCP front-end over one immutable PathIndex.
//
// Threading model (see DESIGN.md "Serving"): run to completion.
//   - a small pool of epoll event loops (EventLoopPool) owns every
//     connection: nonblocking accepts sharded across loops, incremental
//     frame reassembly from edge-triggered reads, pipelined requests
//     (QUERY2 carries a request_id echoed in its reply, so many may be
//     outstanding per connection);
//   - OnFrame answers each request before it returns, on the loop
//     thread: decode, validate, shed (SHUTTING_DOWN while draining,
//     OVERLOADED past the write-queue hard cap, DEADLINE_EXCEEDED when
//     the frame already waited past its budget behind earlier frames of
//     its read), execute on the loop's own query contexts, count, and
//     queue the reply on the connection. No request changes threads.
//
// Shutdown (SIGINT via RequestShutdown(), or a client SHUTDOWN frame)
// drains: no new connections or requests are admitted (late requests get
// SHUTTING_DOWN), everything already admitted is answered and flushed,
// then threads join. Shutdown() is idempotent and safe after a failed
// Start().
class QueryServer : private FrameHandler {
 public:
  // The index (and the graph it was built on) must outlive the server.
  // `technique_id` is the wire id clients must send (or kAnyTechnique);
  // `num_vertices` bounds request validation.
  QueryServer(const PathIndex& index, uint8_t technique_id,
              uint32_t num_vertices, const ServerOptions& options,
              const KnnServing& knn = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds and spawns the event-loop threads. False + *error on failure
  // (e.g. port in use).
  bool Start(std::string* error);

  // Port actually bound (resolves port 0). Valid after Start().
  uint16_t Port() const { return port_; }

  // Marks the server draining and wakes WaitForShutdownRequest(). Called
  // by the SHUTDOWN frame handler; safe from any thread, including the
  // SIGINT path in roadnet_cli.
  void RequestShutdown();

  // Blocks until RequestShutdown() (or a SHUTDOWN frame) fires, at most
  // `timeout`. Returns true once shutdown was requested. The caller —
  // not a connection thread — then runs Shutdown().
  bool WaitForShutdownRequest(std::chrono::milliseconds timeout);

  // Drain-then-stop: stop accepting, answer everything admitted, join
  // all threads. Idempotent; also called by the destructor.
  void Shutdown();

  // Snapshot of everything the STATS frame serves: the serving
  // counters, per-endpoint latency percentiles, live gauges (open
  // connections, write-queue bytes, per-loop connections) and the
  // tracer's per-stage breakdown. Thread-safe; callable mid-run.
  wire::StatsResponse Stats() const;

  // The server's tracer, for runtime retuning (TRACE_CONFIG does this
  // remotely) and test introspection.
  Tracer& tracer() { return tracer_; }

  // Exports the snapshot plus full per-endpoint histograms into a
  // MetricsRegistry (labels: endpoint=distance|path).
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  // One request from decode to reply: a stack local of OnFrame, which
  // answers it before returning.
  struct Request {
    // Which request family this is; selects the active request struct
    // and the reply frame encoded for it.
    enum class Family : uint8_t { kPoint = 0, kKnn = 1, kOneToMany = 2 };
    Family family = Family::kPoint;
    // kPoint requests decode into `req`. kKnn / kOneToMany decode into
    // their own structs, but `req.deadline_micros` is mirrored so the
    // deadline check is family-agnostic.
    wire::QueryRequest req;
    wire::KnnRequest knn_req;
    wire::OneToManyRequest otm_req;
    wire::QueryResponse resp;
    // Entry list of a kKnn / kOneToMany reply; status and latency are
    // copied out of `resp` when the reply frame is encoded.
    wire::KnnResponse knn_resp;
    RequestTrace trace;
  };

  // One event loop's query scratch, indexed by ConnRef::loop. A request
  // runs on its connection's loop thread, the only thread that ever
  // touches that loop's slot, so no locking.
  struct LoopScratch {
    std::unique_ptr<QueryContext> ctx;
    KnnBucketIndex::Context bucket;  // empty unless the kNN family is on
    IerKnnIndex::Context ier;        // empty unless method=ier is hosted
    std::vector<KnnResult> knn_out;
  };

  // FrameHandler: one complete frame from an event loop, on that loop's
  // thread. Query frames are answered before it returns.
  bool OnFrame(const ConnRef& conn, std::string&& body,
               const FrameMeta& meta) override;

  // Decodes a query frame of `type` into *r and checks it against what
  // this server hosts. The family follows the frame type even when
  // decoding fails, so a malformed KNN_QUERY still gets a KNN_REPLY.
  // False means BAD_REQUEST.
  bool Decode(wire::MessageType type, const std::string& body,
              Request* r) const;

  // Runs an admitted request on `scratch`, fills its answer and its
  // counters (r->trace.counters), and returns its reply status.
  wire::Status Execute(Request* r, LoopScratch* scratch);

  // Counts an executed request: served_, its endpoint's latency
  // histogram (r.resp.server_latency_ns) and the summed counters.
  void RecordServed(const Request& r);

  // Encodes the reply frame of whatever family `r` is (copies
  // status/latency into the kNN reply struct first, hence non-const).
  static std::string EncodeReply(Request* r);

  const PathIndex& index_;
  const uint8_t technique_id_;
  const uint32_t num_vertices_;
  const ServerOptions options_;
  const KnnServing knn_;

  Tracer tracer_;
  std::vector<LoopScratch> scratch_;

  uint16_t port_ = 0;
  std::unique_ptr<EventLoopPool> pool_;
  bool started_ = false;

  // Lifecycle. draining_ gates admission (connections and requests);
  // shutdown_cv_ wakes WaitForShutdownRequest().
  std::atomic<bool> draining_{false};
  Mutex shutdown_mu_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ ROADNET_GUARDED_BY(shutdown_mu_) = false;
  bool shutdown_done_ ROADNET_GUARDED_BY(shutdown_mu_) = false;

  // Serving counters (atomics: bumped from loop threads) and
  // per-endpoint latency histograms (loop-written, mutex-guarded for
  // STATS snapshots). Every one moves before the reply it counts is
  // queued.
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> shed_draining_{0};
  std::atomic<uint64_t> bad_requests_{0};
  mutable Mutex stats_mu_;
  Histogram distance_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram path_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram knn_latency_ ROADNET_GUARDED_BY(stats_mu_);
  Histogram one_to_many_latency_ ROADNET_GUARDED_BY(stats_mu_);
  // Summed over every served request.
  QueryCounters counters_ ROADNET_GUARDED_BY(stats_mu_);
};

}  // namespace roadnet

#endif  // ROADNET_SERVER_SERVER_H_
