#ifndef ROADNET_SERVER_WIRE_H_
#define ROADNET_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/types.h"

namespace roadnet {
namespace wire {

// Compact length-prefixed binary wire protocol of the query service.
//
// Every frame is [u32 body_length][body]; the body starts with a u8
// message type followed by the type's fixed layout (all integers
// little-endian, matching io/binary.h). Every request frame gets exactly
// one reply frame. Point queries carry a client-chosen request_id that
// the reply echoes, so a client may pipeline: many QUERY2 frames can be
// outstanding on one connection, their replies matched by id.
//
//   STATS          (empty)
//   STATS_REPLY    u8 version (= kStatsVersion), lifetime counters +
//                  live gauges + per-stage trace histogram table (see
//                  StatsResponse)
//   SHUTDOWN       (empty; admin request: ack, then drain the server)
//   SHUTDOWN_REPLY (empty)
//   TRACE_CONFIG   u8 set_mask (bit0 = sample_every, bit1 = slow_micros),
//                  u64 sample_every, u64 slow_micros (admin request:
//                  retune the tracer at runtime)
//   TRACE_CONFIG_REPLY  u64 sample_every, u64 slow_micros now in effect
//   KNN_QUERY      u8 method (0 = bucket-CH, 1 = IER), u32 category,
//                  u32 k, u32 source, u64 deadline_micros
//   KNN_REPLY      u8 status, u64 server_latency_ns, u32 count,
//                  (u32 vertex, u64 distance) * count — ascending by
//                  (distance, vertex); count < k is an OK short answer
//   ONE_TO_MANY_QUERY  u32 category, u32 source, u64 deadline_micros
//   ONE_TO_MANY_REPLY  same layout as KNN_REPLY; every reachable POI
//   QUERY2         u64 request_id, u8 technique, u8 kind, u32 source,
//                  u32 target, u64 deadline_micros (0 = none, measured
//                  from receipt). Replies may complete out of order and
//                  are matched by request_id.
//   QUERY_REPLY2   u64 request_id (echoed), u8 status, u64 distance,
//                  u64 server_latency_ns, u32 path_len,
//                  u32 vertex * path_len
//
// Types 1 and 4 are unassigned and stay so: a client still speaking the
// retired id-less point-query pair gets its connection closed, never a
// reply it would misread.
//
// Frame bodies are capped (kMaxFrameBytes) so a corrupt or hostile
// length prefix cannot trigger an unbounded allocation.

enum MessageType : uint8_t {
  kStats = 2,
  kShutdown = 3,
  kStatsReply = 5,
  kShutdownReply = 6,
  kTraceConfig = 7,
  kTraceConfigReply = 8,
  kKnnQuery = 9,
  kKnnReply = 10,
  kOneToManyQuery = 11,
  kOneToManyReply = 12,
  kQueryV2 = 13,
  kQueryReplyV2 = 14,
};

enum class QueryKind : uint8_t {
  kDistance = 0,
  kPath = 1,
};

enum class Status : uint8_t {
  kOk = 0,
  kUnreachable = 1,
  // Malformed request: vertex id out of range, bad kind, or a technique
  // id the server does not serve.
  kBadRequest = 2,
  // Load shed: the connection's unsent reply bytes were over the
  // server's write-queue hard cap (the peer is not reading its replies).
  kOverloaded = 3,
  // Load shed: more than the request's deadline_micros passed between its
  // frame being fully received and its turn to run; it was dropped
  // without running.
  kDeadlineExceeded = 4,
  // The server is draining; this request was not admitted.
  kShuttingDown = 5,
};

// Technique ids carried in QUERY2 frames. kAnyTechnique matches whatever
// index the server was started with; a specific id is validated against
// it so a client cannot silently read answers from the wrong index.
inline constexpr uint8_t kAnyTechnique = 0;
uint8_t TechniqueId(const std::string& name);    // 0 = unknown
std::string TechniqueName(uint8_t id);           // "?" = unknown

const char* StatusName(Status s);

struct QueryRequest {
  uint8_t technique = kAnyTechnique;
  QueryKind kind = QueryKind::kDistance;
  VertexId source = 0;
  VertexId target = 0;
  uint64_t deadline_micros = 0;
  // Client-chosen correlation id, echoed verbatim in the matching
  // QUERY_REPLY2.
  uint64_t request_id = 0;
};

struct QueryResponse {
  Status status = Status::kOk;
  Distance distance = 0;
  // Receipt-to-completion time on the server (includes queueing).
  uint64_t server_latency_ns = 0;
  std::vector<VertexId> path;  // filled for kPath queries that succeed
  // Echo of QueryRequest::request_id.
  uint64_t request_id = 0;
};

// kNN technique ids carried in KNN_QUERY frames. Unlike point-to-point
// techniques there is no "any": the client always names the algorithm
// it wants measured.
enum class KnnMethod : uint8_t {
  kBucketCh = 0,  // bucket-based CH join
  kIer = 1,       // incremental Euclidean restriction over the oracle
};

const char* KnnMethodName(KnnMethod m);

struct KnnRequest {
  KnnMethod method = KnnMethod::kBucketCh;
  uint32_t category = 0;
  uint32_t k = 0;
  VertexId source = 0;
  uint64_t deadline_micros = 0;
};

struct OneToManyRequest {
  uint32_t category = 0;
  VertexId source = 0;
  uint64_t deadline_micros = 0;
};

// Shared reply payload of KNN_REPLY and ONE_TO_MANY_REPLY (the frames
// differ only in type byte so a client can never mistake one family's
// answer for the other's). Entries are (vertex, network distance)
// sorted ascending by (distance, vertex id). A list shorter than k —
// small category, unreachable POIs, or an empty category — is a
// well-formed kOk answer, not an error.
struct KnnResponse {
  Status status = Status::kOk;
  uint64_t server_latency_ns = 0;
  std::vector<std::pair<VertexId, Distance>> entries;
};

// STATS_REPLY version byte, bumped on every layout change. Other
// versions are rejected by DecodeStatsResponse so a stale client fails
// loudly rather than misreading shifted fields.
inline constexpr uint8_t kStatsVersion = 4;

// One row of the per-stage latency table in a STATS reply: the
// lifecycle stage id (obs/trace.h TraceStage) and its merged histogram
// summary in nanoseconds.
struct StageStatWire {
  uint8_t stage = 0;
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

// STATS_REPLY payload: the server's lifetime counters and latency
// percentiles (all u64, percentiles in nanoseconds), live gauges — a
// point-in-time snapshot, not a lifetime count — and the tracer's
// per-stage breakdown.
struct StatsResponse {
  uint64_t served = 0;            // queries answered kOk / kUnreachable
  uint64_t shed_overloaded = 0;   // rejected with kOverloaded
  uint64_t shed_deadline = 0;     // rejected with kDeadlineExceeded
  uint64_t shed_draining = 0;     // rejected with kShuttingDown
  uint64_t bad_requests = 0;      // rejected with kBadRequest
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // closed at the connection cap
  uint64_t distance_count = 0;
  uint64_t distance_p50_ns = 0;
  uint64_t distance_p99_ns = 0;
  uint64_t path_count = 0;
  uint64_t path_p50_ns = 0;
  uint64_t path_p99_ns = 0;
  uint64_t open_connections = 0;   // gauge: sockets with a live handler
  // --- tracer counters (lifetime) ---
  uint64_t traces_finished = 0;
  uint64_t traces_captured = 0;
  uint64_t traces_dropped = 0;   // lost to a full trace ring
  uint64_t traces_slow = 0;      // exceeded the slow threshold
  // --- event-loop core ---
  uint64_t write_queue_bytes = 0;  // gauge: queued reply bytes, all conns
  uint64_t idle_reaped = 0;        // lifetime: idle connections closed
  // Gauge: open connections owned by each event loop (sums to
  // open_connections).
  std::vector<uint64_t> loop_connections;
  // Per-stage latency table; empty until tracing has seen a request.
  std::vector<StageStatWire> stages;
};

// TRACE_CONFIG payload: runtime tracer retuning. Unset knobs (mask bit
// clear) keep their current value; the reply echoes what is in effect.
struct TraceConfigRequest {
  std::optional<uint64_t> sample_every;  // 0 disables head sampling
  std::optional<uint64_t> slow_micros;   // obs/trace.h kTraceSlowDisabled = off
};

struct TraceConfigResponse {
  uint64_t sample_every = 0;
  uint64_t slow_micros = 0;
};

// Upper bound on a frame body. Large enough for a path response over
// any graph this repo handles (16M vertices * 4 bytes), small enough to
// bound a malicious length prefix.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// --- Body encoding (the returned string excludes the length prefix) ---

std::string EncodeQueryRequestV2(const QueryRequest& req);
std::string EncodeQueryResponseV2(const QueryResponse& resp);
std::string EncodeStatsRequest();
std::string EncodeStatsResponse(const StatsResponse& stats);
std::string EncodeShutdownRequest();
std::string EncodeShutdownResponse();
std::string EncodeTraceConfigRequest(const TraceConfigRequest& req);
std::string EncodeTraceConfigResponse(const TraceConfigResponse& resp);
std::string EncodeKnnRequest(const KnnRequest& req);
std::string EncodeOneToManyRequest(const OneToManyRequest& req);
// `reply_type` selects kKnnReply or kOneToManyReply.
std::string EncodeKnnResponse(MessageType reply_type,
                              const KnnResponse& resp);

// --- Body decoding. nullopt on short/trailing bytes or a bad type. ---

// Peeks the message type of a body (nullopt when empty or when the
// first byte is not an assigned type).
std::optional<MessageType> PeekType(const std::string& body);

std::optional<QueryRequest> DecodeQueryRequestV2(const std::string& body);
std::optional<QueryResponse> DecodeQueryResponseV2(const std::string& body);
std::optional<StatsResponse> DecodeStatsResponse(const std::string& body);
std::optional<TraceConfigRequest> DecodeTraceConfigRequest(
    const std::string& body);
std::optional<TraceConfigResponse> DecodeTraceConfigResponse(
    const std::string& body);
std::optional<KnnRequest> DecodeKnnRequest(const std::string& body);
std::optional<OneToManyRequest> DecodeOneToManyRequest(
    const std::string& body);
std::optional<KnnResponse> DecodeKnnResponse(MessageType reply_type,
                                             const std::string& body);

}  // namespace wire
}  // namespace roadnet

#endif  // ROADNET_SERVER_WIRE_H_
