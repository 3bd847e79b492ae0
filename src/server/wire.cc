#include "server/wire.h"

#include <cstring>

namespace roadnet {
namespace wire {

namespace {

// Append/read little-endian scalars on a std::string buffer. The wire
// format shares io/binary.h's little-endian-only contract.
template <typename T>
void Append(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Cursor-based reader; Take() fails (returns false) on short input.
struct Reader {
  const std::string& body;
  size_t pos = 0;
  bool ok = true;

  template <typename T>
  bool Take(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok || pos + sizeof(T) > body.size()) {
      ok = false;
      return false;
    }
    std::memcpy(value, body.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  // Whole body consumed, nothing trailing.
  bool Done() const { return ok && pos == body.size(); }
};

// Encoded sizes of the STATS_REPLY list entries: a per-loop connection
// gauge, and a {stage, count, p50, p99} row.
constexpr size_t kLoopEntryBytes = sizeof(uint64_t);
constexpr size_t kStageEntryBytes = sizeof(uint8_t) + 3 * sizeof(uint64_t);

}  // namespace

// Keep in sync with server::MakeIndex (index_factory.cc): these are the
// techniques the serve command can host.
uint8_t TechniqueId(const std::string& name) {
  if (name == "any") return kAnyTechnique;
  if (name == "bidi") return 1;
  if (name == "ch") return 2;
  if (name == "alt") return 3;
  if (name == "hl") return 4;
  return 0;
}

std::string TechniqueName(uint8_t id) {
  switch (id) {
    case kAnyTechnique: return "any";
    case 1: return "bidi";
    case 2: return "ch";
    case 3: return "alt";
    case 4: return "hl";
    default: return "?";
  }
}

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kUnreachable: return "UNREACHABLE";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kOverloaded: return "OVERLOADED";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kShuttingDown: return "SHUTTING_DOWN";
  }
  return "?";
}

std::string EncodeQueryRequestV2(const QueryRequest& req) {
  std::string body;
  body.reserve(1 + 8 + 1 + 1 + 4 + 4 + 8);
  Append<uint8_t>(&body, kQueryV2);
  Append<uint64_t>(&body, req.request_id);
  Append<uint8_t>(&body, req.technique);
  Append<uint8_t>(&body, static_cast<uint8_t>(req.kind));
  Append<uint32_t>(&body, req.source);
  Append<uint32_t>(&body, req.target);
  Append<uint64_t>(&body, req.deadline_micros);
  return body;
}

std::optional<QueryRequest> DecodeQueryRequestV2(const std::string& body) {
  Reader r{body};
  uint8_t type = 0, kind = 0;
  QueryRequest req;
  r.Take(&type);
  r.Take(&req.request_id);
  r.Take(&req.technique);
  r.Take(&kind);
  r.Take(&req.source);
  r.Take(&req.target);
  r.Take(&req.deadline_micros);
  if (!r.Done() || type != kQueryV2 || kind > 1) return std::nullopt;
  req.kind = static_cast<QueryKind>(kind);
  return req;
}

std::string EncodeQueryResponseV2(const QueryResponse& resp) {
  std::string body;
  body.reserve(1 + 8 + 1 + 8 + 8 + 4 + resp.path.size() * sizeof(VertexId));
  Append<uint8_t>(&body, kQueryReplyV2);
  Append<uint64_t>(&body, resp.request_id);
  Append<uint8_t>(&body, static_cast<uint8_t>(resp.status));
  Append<uint64_t>(&body, resp.distance);
  Append<uint64_t>(&body, resp.server_latency_ns);
  Append<uint32_t>(&body, static_cast<uint32_t>(resp.path.size()));
  for (VertexId v : resp.path) Append<uint32_t>(&body, v);
  return body;
}

std::optional<QueryResponse> DecodeQueryResponseV2(const std::string& body) {
  Reader r{body};
  uint8_t type = 0, status = 0;
  QueryResponse resp;
  uint32_t path_len = 0;
  r.Take(&type);
  r.Take(&resp.request_id);
  r.Take(&status);
  r.Take(&resp.distance);
  r.Take(&resp.server_latency_ns);
  r.Take(&path_len);
  if (!r.ok || type != kQueryReplyV2 ||
      status > static_cast<uint8_t>(Status::kShuttingDown)) {
    return std::nullopt;
  }
  // The remaining bytes must be exactly the declared path.
  if (body.size() - r.pos != size_t{path_len} * sizeof(uint32_t)) {
    return std::nullopt;
  }
  resp.status = static_cast<Status>(status);
  resp.path.resize(path_len);
  for (uint32_t i = 0; i < path_len; ++i) r.Take(&resp.path[i]);
  if (!r.Done()) return std::nullopt;
  return resp;
}

std::string EncodeStatsRequest() { return std::string(1, char(kStats)); }

std::string EncodeStatsResponse(const StatsResponse& stats) {
  std::string body;
  Append<uint8_t>(&body, kStatsReply);
  Append<uint8_t>(&body, kStatsVersion);
  Append<uint64_t>(&body, stats.served);
  Append<uint64_t>(&body, stats.shed_overloaded);
  Append<uint64_t>(&body, stats.shed_deadline);
  Append<uint64_t>(&body, stats.shed_draining);
  Append<uint64_t>(&body, stats.bad_requests);
  Append<uint64_t>(&body, stats.connections_accepted);
  Append<uint64_t>(&body, stats.connections_rejected);
  Append<uint64_t>(&body, stats.distance_count);
  Append<uint64_t>(&body, stats.distance_p50_ns);
  Append<uint64_t>(&body, stats.distance_p99_ns);
  Append<uint64_t>(&body, stats.path_count);
  Append<uint64_t>(&body, stats.path_p50_ns);
  Append<uint64_t>(&body, stats.path_p99_ns);
  Append<uint64_t>(&body, stats.open_connections);
  Append<uint64_t>(&body, stats.traces_finished);
  Append<uint64_t>(&body, stats.traces_captured);
  Append<uint64_t>(&body, stats.traces_dropped);
  Append<uint64_t>(&body, stats.traces_slow);
  Append<uint64_t>(&body, stats.write_queue_bytes);
  Append<uint64_t>(&body, stats.idle_reaped);
  Append<uint32_t>(&body,
                   static_cast<uint32_t>(stats.loop_connections.size()));
  for (uint64_t c : stats.loop_connections) Append<uint64_t>(&body, c);
  Append<uint32_t>(&body, static_cast<uint32_t>(stats.stages.size()));
  for (const StageStatWire& s : stats.stages) {
    Append<uint8_t>(&body, s.stage);
    Append<uint64_t>(&body, s.count);
    Append<uint64_t>(&body, s.p50_ns);
    Append<uint64_t>(&body, s.p99_ns);
  }
  return body;
}

std::optional<StatsResponse> DecodeStatsResponse(const std::string& body) {
  Reader r{body};
  uint8_t type = 0, version = 0;
  StatsResponse s;
  r.Take(&type);
  r.Take(&version);
  if (!r.ok || type != kStatsReply || version != kStatsVersion) {
    return std::nullopt;
  }
  r.Take(&s.served);
  r.Take(&s.shed_overloaded);
  r.Take(&s.shed_deadline);
  r.Take(&s.shed_draining);
  r.Take(&s.bad_requests);
  r.Take(&s.connections_accepted);
  r.Take(&s.connections_rejected);
  r.Take(&s.distance_count);
  r.Take(&s.distance_p50_ns);
  r.Take(&s.distance_p99_ns);
  r.Take(&s.path_count);
  r.Take(&s.path_p50_ns);
  r.Take(&s.path_p99_ns);
  r.Take(&s.open_connections);
  r.Take(&s.traces_finished);
  r.Take(&s.traces_captured);
  r.Take(&s.traces_dropped);
  r.Take(&s.traces_slow);
  r.Take(&s.write_queue_bytes);
  r.Take(&s.idle_reaped);
  // Each count is checked against the bytes left before anything is
  // sized from it: a lying count costs a rejection, not an allocation.
  uint32_t loop_count = 0;
  r.Take(&loop_count);
  if (!r.ok || loop_count > (body.size() - r.pos) / kLoopEntryBytes) {
    return std::nullopt;
  }
  s.loop_connections.resize(loop_count);
  for (uint64_t& c : s.loop_connections) r.Take(&c);
  uint32_t stage_count = 0;
  r.Take(&stage_count);
  if (!r.ok || stage_count > (body.size() - r.pos) / kStageEntryBytes) {
    return std::nullopt;
  }
  s.stages.resize(stage_count);
  for (StageStatWire& stat : s.stages) {
    r.Take(&stat.stage);
    r.Take(&stat.count);
    r.Take(&stat.p50_ns);
    r.Take(&stat.p99_ns);
  }
  if (!r.Done()) return std::nullopt;
  return s;
}

std::string EncodeShutdownRequest() {
  return std::string(1, char(kShutdown));
}

std::string EncodeShutdownResponse() {
  return std::string(1, char(kShutdownReply));
}

std::string EncodeTraceConfigRequest(const TraceConfigRequest& req) {
  std::string body;
  Append<uint8_t>(&body, kTraceConfig);
  uint8_t mask = 0;
  if (req.sample_every) mask |= 1;
  if (req.slow_micros) mask |= 2;
  Append<uint8_t>(&body, mask);
  Append<uint64_t>(&body, req.sample_every.value_or(0));
  Append<uint64_t>(&body, req.slow_micros.value_or(0));
  return body;
}

std::optional<TraceConfigRequest> DecodeTraceConfigRequest(
    const std::string& body) {
  Reader r{body};
  uint8_t type = 0, mask = 0;
  uint64_t sample = 0, slow = 0;
  r.Take(&type);
  r.Take(&mask);
  r.Take(&sample);
  r.Take(&slow);
  if (!r.Done() || type != kTraceConfig || mask > 3) return std::nullopt;
  TraceConfigRequest req;
  if (mask & 1) req.sample_every = sample;
  if (mask & 2) req.slow_micros = slow;
  return req;
}

std::string EncodeTraceConfigResponse(const TraceConfigResponse& resp) {
  std::string body;
  Append<uint8_t>(&body, kTraceConfigReply);
  Append<uint64_t>(&body, resp.sample_every);
  Append<uint64_t>(&body, resp.slow_micros);
  return body;
}

std::optional<TraceConfigResponse> DecodeTraceConfigResponse(
    const std::string& body) {
  Reader r{body};
  uint8_t type = 0;
  TraceConfigResponse resp;
  r.Take(&type);
  r.Take(&resp.sample_every);
  r.Take(&resp.slow_micros);
  if (!r.Done() || type != kTraceConfigReply) return std::nullopt;
  return resp;
}

const char* KnnMethodName(KnnMethod m) {
  switch (m) {
    case KnnMethod::kBucketCh: return "bucket-ch";
    case KnnMethod::kIer: return "ier";
  }
  return "?";
}

std::string EncodeKnnRequest(const KnnRequest& req) {
  std::string body;
  body.reserve(1 + 1 + 4 + 4 + 4 + 8);
  Append<uint8_t>(&body, kKnnQuery);
  Append<uint8_t>(&body, static_cast<uint8_t>(req.method));
  Append<uint32_t>(&body, req.category);
  Append<uint32_t>(&body, req.k);
  Append<uint32_t>(&body, req.source);
  Append<uint64_t>(&body, req.deadline_micros);
  return body;
}

std::optional<KnnRequest> DecodeKnnRequest(const std::string& body) {
  Reader r{body};
  uint8_t type = 0, method = 0;
  KnnRequest req;
  r.Take(&type);
  r.Take(&method);
  r.Take(&req.category);
  r.Take(&req.k);
  r.Take(&req.source);
  r.Take(&req.deadline_micros);
  if (!r.Done() || type != kKnnQuery ||
      method > static_cast<uint8_t>(KnnMethod::kIer)) {
    return std::nullopt;
  }
  req.method = static_cast<KnnMethod>(method);
  return req;
}

std::string EncodeOneToManyRequest(const OneToManyRequest& req) {
  std::string body;
  body.reserve(1 + 4 + 4 + 8);
  Append<uint8_t>(&body, kOneToManyQuery);
  Append<uint32_t>(&body, req.category);
  Append<uint32_t>(&body, req.source);
  Append<uint64_t>(&body, req.deadline_micros);
  return body;
}

std::optional<OneToManyRequest> DecodeOneToManyRequest(
    const std::string& body) {
  Reader r{body};
  uint8_t type = 0;
  OneToManyRequest req;
  r.Take(&type);
  r.Take(&req.category);
  r.Take(&req.source);
  r.Take(&req.deadline_micros);
  if (!r.Done() || type != kOneToManyQuery) return std::nullopt;
  return req;
}

std::string EncodeKnnResponse(MessageType reply_type,
                              const KnnResponse& resp) {
  std::string body;
  body.reserve(1 + 1 + 8 + 4 + resp.entries.size() * 12);
  Append<uint8_t>(&body, reply_type);
  Append<uint8_t>(&body, static_cast<uint8_t>(resp.status));
  Append<uint64_t>(&body, resp.server_latency_ns);
  Append<uint32_t>(&body, static_cast<uint32_t>(resp.entries.size()));
  for (const auto& [v, d] : resp.entries) {
    Append<uint32_t>(&body, v);
    Append<uint64_t>(&body, d);
  }
  return body;
}

std::optional<KnnResponse> DecodeKnnResponse(MessageType reply_type,
                                             const std::string& body) {
  Reader r{body};
  uint8_t type = 0, status = 0;
  KnnResponse resp;
  uint32_t count = 0;
  r.Take(&type);
  r.Take(&status);
  r.Take(&resp.server_latency_ns);
  r.Take(&count);
  if (!r.ok || type != reply_type ||
      status > static_cast<uint8_t>(Status::kShuttingDown)) {
    return std::nullopt;
  }
  // The remaining bytes must be exactly the declared entry list.
  if (body.size() - r.pos != size_t{count} * 12) return std::nullopt;
  resp.status = static_cast<Status>(status);
  resp.entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    r.Take(&resp.entries[i].first);
    r.Take(&resp.entries[i].second);
  }
  if (!r.Done()) return std::nullopt;
  return resp;
}

std::optional<MessageType> PeekType(const std::string& body) {
  if (body.empty()) return std::nullopt;
  const uint8_t t = static_cast<uint8_t>(body[0]);
  // 1 and 4 are unassigned (see wire.h).
  if (t < kStats || t > kQueryReplyV2 || t == 4) return std::nullopt;
  return static_cast<MessageType>(t);
}

}  // namespace wire
}  // namespace roadnet
