#include "server/server.h"

#include <utility>

namespace roadnet {

namespace {

// Status names for the trace JSONL export, as a plain function pointer so
// the obs layer stays independent of server/wire.
const char* TraceStatusName(uint8_t status) {
  return wire::StatusName(static_cast<wire::Status>(status));
}

// Requests are tiny fixed-size frames; cap far below response sizes.
constexpr uint32_t kMaxRequestBytes = 1024;

size_t NumLoops(const ServerOptions& options) {
  return options.num_loops == 0 ? 1 : options.num_loops;
}

TracerOptions MakeTracerOptions(const ServerOptions& options) {
  TracerOptions t;
  t.sample_every = options.trace_sample_every;
  t.slow_micros = options.trace_slow_us;
  // One shard per event loop: the loop thread is the only producer into
  // its shard's ring (requests start and finish on their owning loop).
  t.shards = NumLoops(options);
  t.id_seed = options.trace_seed;
  t.status_name = &TraceStatusName;
  return t;
}

}  // namespace

QueryServer::QueryServer(const PathIndex& index, uint8_t technique_id,
                         uint32_t num_vertices, const ServerOptions& options,
                         const KnnServing& knn)
    : index_(index),
      technique_id_(technique_id),
      num_vertices_(num_vertices),
      options_(options),
      knn_(knn),
      tracer_(MakeTracerOptions(options)),
      scratch_(NumLoops(options)) {
  for (LoopScratch& s : scratch_) {
    s.ctx = index_.NewContext();
    if (knn_.Enabled()) {
      s.bucket = knn_.bucket->NewContext();
      if (knn_.ier != nullptr) s.ier = knn_.ier->NewContext();
    }
  }
}

QueryServer::~QueryServer() { Shutdown(); }

bool QueryServer::Start(std::string* error) {
  if (!options_.trace_out.empty() &&
      !tracer_.StartExporter(options_.trace_out, error)) {
    return false;
  }
  ScopedFd listen = ListenTcp(options_.port, &port_, error);
  if (!listen.valid()) {
    tracer_.StopExporter();  // same leak as the pool-start failure below
    return false;
  }

  EventLoopOptions lo;
  lo.num_loops = NumLoops(options_);
  lo.max_connections = options_.max_connections;
  lo.max_frame_bytes = kMaxRequestBytes;
  lo.write_soft_cap = options_.write_queue_soft_cap;
  lo.idle_timeout_ms = options_.idle_timeout_ms;
  lo.sndbuf_bytes = options_.sndbuf_bytes;
  lo.epoch = tracer_.Epoch();
  // The cast happens here (not inside make_unique) because FrameHandler
  // is a private base: only members may convert to it.
  pool_ = std::make_unique<EventLoopPool>(lo, static_cast<FrameHandler*>(this));
  if (!pool_->Start(std::move(listen), error)) {
    pool_.reset();
    // The exporter was started at the top of this function; a failed
    // Start must not leak its thread (and must close the JSONL file so
    // the caller can retry with the same path).
    tracer_.StopExporter();
    return false;
  }
  started_ = true;
  return true;
}

void QueryServer::RequestShutdown() {
  draining_.store(true);
  {
    MutexLock lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.NotifyAll();
}

bool QueryServer::WaitForShutdownRequest(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_ &&
         shutdown_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
  }
  return shutdown_requested_;
}

void QueryServer::Shutdown() {
  {
    MutexLock lock(shutdown_mu_);
    if (shutdown_done_) return;
    shutdown_done_ = true;
  }
  draining_.store(true);

  if (started_) {
    // 1. Stop accepting. This waits for every loop to drop the listen fd
    // between events, so each loop has finished the request it was
    // running when draining_ was set; every later frame is answered
    // SHUTTING_DOWN. Every admitted request now has its reply queued.
    pool_->StopAccepting();

    // 2. Flush replies to peers that are reading (bounded: a peer that
    // stopped reading cannot stall the drain forever), then stop.
    pool_->FlushAndWait(std::chrono::seconds(2));
    pool_->Stop();
  }
  // Every producer is gone: the final drain flushes all captured traces
  // to the slow-query log before the file closes.
  tracer_.StopExporter();
}

std::string QueryServer::EncodeReply(Request* r) {
  switch (r->family) {
    case Request::Family::kKnn:
      r->knn_resp.status = r->resp.status;
      r->knn_resp.server_latency_ns = r->resp.server_latency_ns;
      return wire::EncodeKnnResponse(wire::kKnnReply, r->knn_resp);
    case Request::Family::kOneToMany:
      r->knn_resp.status = r->resp.status;
      r->knn_resp.server_latency_ns = r->resp.server_latency_ns;
      return wire::EncodeKnnResponse(wire::kOneToManyReply, r->knn_resp);
    case Request::Family::kPoint:
      break;
  }
  return wire::EncodeQueryResponseV2(r->resp);
}

bool QueryServer::Decode(wire::MessageType type, const std::string& body,
                         Request* r) const {
  // A short answer (empty category, k > |POIs|) is NOT a bad request —
  // only malformed frames, ids out of range, and techniques/methods the
  // server does not host are.
  RequestTrace& trace = r->trace;
  if (type == wire::kQueryV2) {
    const auto req = wire::DecodeQueryRequestV2(body);
    if (!req.has_value()) return false;
    r->resp.request_id = req->request_id;
    r->req = *req;
    trace.kind = static_cast<uint8_t>(req->kind);
    trace.source = req->source;
    trace.target = req->target;
    return req->source < num_vertices_ && req->target < num_vertices_ &&
           (req->technique == wire::kAnyTechnique ||
            req->technique == technique_id_);
  }
  if (type == wire::kKnnQuery) {
    r->family = Request::Family::kKnn;
    const auto req = wire::DecodeKnnRequest(body);
    if (!req.has_value()) return false;
    r->knn_req = *req;
    r->req.deadline_micros = req->deadline_micros;
    trace.kind = 2;
    trace.source = req->source;
    trace.target = req->category;  // category stands in for target
    return knn_.Enabled() && req->source < num_vertices_ &&
           req->category < knn_.pois->NumCategories() &&
           (req->method != wire::KnnMethod::kIer || knn_.ier != nullptr);
  }
  r->family = Request::Family::kOneToMany;
  const auto req = wire::DecodeOneToManyRequest(body);
  if (!req.has_value()) return false;
  r->otm_req = *req;
  r->req.deadline_micros = req->deadline_micros;
  trace.kind = 3;
  trace.source = req->source;
  trace.target = req->category;
  return knn_.Enabled() && req->source < num_vertices_ &&
         req->category < knn_.pois->NumCategories();
}

wire::Status QueryServer::Execute(Request* r, LoopScratch* scratch) {
  QueryCounters& counters = r->trace.counters;
  if (r->family == Request::Family::kPoint) {
    QueryContext* ctx = scratch->ctx.get();
    const wire::QueryRequest& q = r->req;
    if (q.kind == wire::QueryKind::kPath) {
      // One search answers both: the path query leaves its length in ctx.
      r->resp.path = index_.PathQuery(ctx, q.source, q.target);
      r->resp.distance = ctx->path_distance;
    } else {
      r->resp.distance = index_.DistanceQuery(ctx, q.source, q.target);
    }
    counters = ctx->counters;
  } else {
    std::vector<KnnResult>& out = scratch->knn_out;
    if (r->family == Request::Family::kOneToMany) {
      knn_.bucket->OneToManyQuery(&scratch->bucket, r->otm_req.category,
                                  r->otm_req.source, &out);
      counters = scratch->bucket.counters;
    } else if (r->knn_req.method == wire::KnnMethod::kIer) {
      knn_.ier->KnnQuery(&scratch->ier, r->knn_req.category,
                         r->knn_req.source, r->knn_req.k, &out);
      counters = scratch->ier.counters;
    } else {
      knn_.bucket->KnnQuery(&scratch->bucket, r->knn_req.category,
                            r->knn_req.source, r->knn_req.k, &out);
      counters = scratch->bucket.counters;
    }
    r->knn_resp.entries.reserve(out.size());
    for (const KnnResult& k : out) {
      r->knn_resp.entries.emplace_back(k.poi, k.dist);
    }
  }
  // A short (even empty) kNN list is a complete OK answer: unreachable or
  // absent POIs are simply not in it.
  return r->family == Request::Family::kPoint &&
                 r->resp.distance == kInfDistance
             ? wire::Status::kUnreachable
             : wire::Status::kOk;
}

void QueryServer::RecordServed(const Request& r) {
  const uint64_t latency_ns = r.resp.server_latency_ns;
  {
    MutexLock lock(stats_mu_);
    switch (r.family) {
      case Request::Family::kPoint:
        (r.req.kind == wire::QueryKind::kPath ? path_latency_
                                              : distance_latency_)
            .Record(latency_ns);
        break;
      case Request::Family::kKnn:
        knn_latency_.Record(latency_ns);
        break;
      case Request::Family::kOneToMany:
        one_to_many_latency_.Record(latency_ns);
        break;
    }
    counters_ += r.trace.counters;
  }
  served_.fetch_add(1, std::memory_order_relaxed);
}

bool QueryServer::OnFrame(const ConnRef& conn, std::string&& body,
                          const FrameMeta& meta) {
  const auto type = wire::PeekType(body);
  if (!type.has_value()) return false;  // garbage: hang up

  // Admin frames are answered inline on the loop thread and not traced.
  if (*type == wire::kStats) {
    return pool_->Send(conn, wire::EncodeStatsResponse(Stats()));
  }
  if (*type == wire::kShutdown) {
    // Ack first so the admin client gets a reply, then flag the drain;
    // the owner thread (WaitForShutdownRequest) runs Shutdown().
    const bool ok = pool_->Send(conn, wire::EncodeShutdownResponse());
    RequestShutdown();
    return ok;
  }
  if (*type == wire::kTraceConfig) {
    const auto cfg = wire::DecodeTraceConfigRequest(body);
    if (!cfg.has_value()) return false;
    tracer_.Configure(cfg->sample_every, cfg->slow_micros);
    wire::TraceConfigResponse ack;
    ack.sample_every = tracer_.SampleEvery();
    ack.slow_micros = tracer_.SlowMicros();
    return pool_->Send(conn, wire::EncodeTraceConfigResponse(ack));
  }
  if (*type != wire::kQueryV2 && *type != wire::kKnnQuery &&
      *type != wire::kOneToManyQuery) {
    return false;
  }

  Request r;
  RequestTrace& trace = r.trace;
  tracer_.StartRequest(&trace);
  if (meta.first_frame) {
    // The first request's accept stage: accept(2) return to the loop
    // starting to wait for this connection's bytes.
    trace.RecordStage(TraceStage::kAccept, meta.accept_ns,
                      meta.read_start_ns);
  }
  // frame_read covers waiting for and incrementally reassembling the
  // frame (timestamps come from the loop's read path).
  trace.RecordStage(TraceStage::kFrameRead, meta.read_start_ns,
                    meta.frame_end_ns);

  // The request is received when its frame is buffered, so its latency
  // and deadline both count the wait behind earlier frames of the same
  // read. Every counter moves before the reply is queued: a client that
  // reads STATS as soon as its reply lands sees it counted.
  wire::Status status = wire::Status::kOk;
  if (!Decode(*type, body, &r)) {
    status = wire::Status::kBadRequest;
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
  } else if (draining_.load(std::memory_order_relaxed)) {
    status = wire::Status::kShuttingDown;
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
  } else if (options_.write_queue_hard_cap > 0 &&
             meta.write_queue_bytes > options_.write_queue_hard_cap) {
    // The peer is not draining its replies; shedding here keeps a
    // non-reading client from pinning reply bytes in memory.
    status = wire::Status::kOverloaded;
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
  } else if (r.req.deadline_micros > 0 &&
             (tracer_.NowNs() - meta.frame_end_ns) / 1000 >
                 r.req.deadline_micros) {
    status = wire::Status::kDeadlineExceeded;
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
  }
  // Consecutive stages share their boundary stamps, so they tile the
  // request from frame_end on: a preemption lands inside a stage, never
  // between two.
  const uint64_t admitted_ns = trace.NowNs();
  trace.RecordStage(TraceStage::kEnqueue, meta.frame_end_ns, admitted_ns);
  const bool admitted = status == wire::Status::kOk;
  uint64_t reply_start_ns = admitted_ns;
  if (admitted) {
    status = Execute(&r, &scratch_[conn.loop]);
    reply_start_ns = trace.NowNs();
    trace.RecordStage(TraceStage::kExecute, admitted_ns, reply_start_ns);
  }

  // reply_write: count the answered request, encode and queue the reply.
  r.resp.status = status;
  r.resp.server_latency_ns = tracer_.NowNs() - meta.frame_end_ns;
  if (admitted) RecordServed(r);
  trace.status = static_cast<uint8_t>(status);
  pool_->Send(conn, EncodeReply(&r));  // false if the connection died
  trace.RecordStage(TraceStage::kReplyWrite, reply_start_ns, trace.NowNs());
  tracer_.Finish(conn.loop, &trace);
  return true;
}

wire::StatsResponse QueryServer::Stats() const {
  wire::StatsResponse s;
  s.served = served_.load(std::memory_order_relaxed);
  s.shed_overloaded = shed_overloaded_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  if (pool_ != nullptr) {
    const EventLoopPool::PoolStats ps = pool_->Stats();
    s.connections_accepted = ps.accepted;
    s.connections_rejected = ps.rejected;
    s.open_connections = ps.open_connections;
    s.write_queue_bytes = ps.write_queue_bytes;
    s.idle_reaped = ps.idle_reaped;
    s.loop_connections = ps.loop_connections;
  }
  const Tracer::Snapshot snap = tracer_.GetSnapshot();
  s.traces_finished = snap.finished;
  s.traces_captured = snap.captured;
  s.traces_dropped = snap.dropped;
  s.traces_slow = snap.slow;
  s.stages.reserve(snap.stages.size());
  for (const Tracer::StageStat& stat : snap.stages) {
    wire::StageStatWire w;
    w.stage = static_cast<uint8_t>(stat.stage);
    w.count = stat.count;
    w.p50_ns = stat.p50_ns;
    w.p99_ns = stat.p99_ns;
    s.stages.push_back(w);
  }
  MutexLock lock(stats_mu_);
  s.distance_count = distance_latency_.Count();
  s.distance_p50_ns = distance_latency_.ValueAtQuantile(0.50);
  s.distance_p99_ns = distance_latency_.ValueAtQuantile(0.99);
  s.path_count = path_latency_.Count();
  s.path_p50_ns = path_latency_.ValueAtQuantile(0.50);
  s.path_p99_ns = path_latency_.ValueAtQuantile(0.99);
  return s;
}

void QueryServer::ExportMetrics(MetricsRegistry* registry) const {
  const wire::StatsResponse s = Stats();
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"command", "serve"}, {"method", index_.Name()}};
  registry->Add("served", static_cast<double>(s.served), labels);
  registry->Add("shed_overloaded", static_cast<double>(s.shed_overloaded),
                labels);
  registry->Add("shed_deadline", static_cast<double>(s.shed_deadline),
                labels);
  registry->Add("shed_draining", static_cast<double>(s.shed_draining),
                labels);
  registry->Add("bad_requests", static_cast<double>(s.bad_requests), labels);
  registry->Add("connections_accepted",
                static_cast<double>(s.connections_accepted), labels);
  registry->Add("connections_rejected",
                static_cast<double>(s.connections_rejected), labels);
  // Event-loop core gauges.
  registry->Add("write_queue_bytes", static_cast<double>(s.write_queue_bytes),
                labels);
  registry->Add("idle_connections_reaped",
                static_cast<double>(s.idle_reaped), labels);
  for (size_t i = 0; i < s.loop_connections.size(); ++i) {
    auto l = labels;
    l.emplace_back("loop", std::to_string(i));
    registry->Add("loop_open_connections",
                  static_cast<double>(s.loop_connections[i]), l);
  }
  MutexLock lock(stats_mu_);
  auto with_endpoint = [&labels](const char* endpoint) {
    auto l = labels;
    l.emplace_back("endpoint", endpoint);
    return l;
  };
  registry->AddHistogram("latency_micros", distance_latency_, 1e-3,
                         with_endpoint("distance"));
  registry->AddHistogram("latency_micros", path_latency_, 1e-3,
                         with_endpoint("path"));
  if (knn_.Enabled()) {
    registry->AddHistogram("latency_micros", knn_latency_, 1e-3,
                           with_endpoint("knn"));
    registry->AddHistogram("latency_micros", one_to_many_latency_, 1e-3,
                           with_endpoint("one_to_many"));
  }
  registry->AddCounters(counters_, labels);
  tracer_.ExportMetrics(registry, labels);
}

}  // namespace roadnet
