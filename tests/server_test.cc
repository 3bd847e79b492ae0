#include "server/server.h"

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "server/client.h"
#include "server/wire.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// --- Wire protocol round trips ---

TEST(Wire, StatsResponseRoundTrips) {
  wire::StatsResponse stats;
  stats.served = 10;
  stats.shed_overloaded = 2;
  stats.shed_deadline = 3;
  stats.distance_count = 9;
  stats.distance_p99_ns = 123456;
  stats.path_p50_ns = 789;
  const std::string body = wire::EncodeStatsResponse(stats);
  const auto decoded = wire::DecodeStatsResponse(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->served, stats.served);
  EXPECT_EQ(decoded->shed_overloaded, stats.shed_overloaded);
  EXPECT_EQ(decoded->shed_deadline, stats.shed_deadline);
  EXPECT_EQ(decoded->distance_count, stats.distance_count);
  EXPECT_EQ(decoded->distance_p99_ns, stats.distance_p99_ns);
  EXPECT_EQ(decoded->path_p50_ns, stats.path_p50_ns);
}

TEST(Wire, StatsResponseV2RoundTripsGaugesAndStages) {
  wire::StatsResponse stats;
  stats.served = 42;
  stats.open_connections = 7;
  stats.traces_finished = 100;
  stats.traces_captured = 25;
  stats.traces_dropped = 1;
  stats.traces_slow = 3;
  stats.stages.push_back(wire::StageStatWire{3, 100, 1500, 9000});
  stats.stages.push_back(wire::StageStatWire{5, 100, 40000, 220000});
  const std::string body = wire::EncodeStatsResponse(stats);
  const auto decoded = wire::DecodeStatsResponse(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->served, stats.served);
  EXPECT_EQ(decoded->open_connections, 7u);
  EXPECT_EQ(decoded->traces_finished, 100u);
  EXPECT_EQ(decoded->traces_captured, 25u);
  EXPECT_EQ(decoded->traces_dropped, 1u);
  EXPECT_EQ(decoded->traces_slow, 3u);
  ASSERT_EQ(decoded->stages.size(), 2u);
  EXPECT_EQ(decoded->stages[0].stage, 3u);
  EXPECT_EQ(decoded->stages[0].count, 100u);
  EXPECT_EQ(decoded->stages[0].p50_ns, 1500u);
  EXPECT_EQ(decoded->stages[0].p99_ns, 9000u);
  EXPECT_EQ(decoded->stages[1].stage, 5u);
  EXPECT_EQ(decoded->stages[1].p99_ns, 220000u);

  // A reply stamped with an unknown stats version is rejected, not
  // misparsed: byte 1 is the version.
  std::string wrong_version = body;
  wrong_version[1] = static_cast<char>(wire::kStatsVersion + 1);
  EXPECT_FALSE(wire::DecodeStatsResponse(wrong_version).has_value());

  // Truncation anywhere (including mid stage entry) is rejected.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeStatsResponse(body.substr(0, cut)).has_value())
        << "cut " << cut;
  }
  EXPECT_FALSE(wire::DecodeStatsResponse(body + "x").has_value());
}

TEST(Wire, QueryV2FramesRoundTripWithRequestId) {
  wire::QueryRequest req;
  req.request_id = 0xdeadbeefcafef00dull;
  req.technique = wire::TechniqueId("ch");
  req.kind = wire::QueryKind::kPath;
  req.source = 111;
  req.target = 222;
  req.deadline_micros = 333;
  const std::string body = wire::EncodeQueryRequestV2(req);
  EXPECT_EQ(wire::PeekType(body), wire::kQueryV2);
  const auto decoded = wire::DecodeQueryRequestV2(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->technique, req.technique);
  EXPECT_EQ(decoded->kind, req.kind);
  EXPECT_EQ(decoded->source, req.source);
  EXPECT_EQ(decoded->target, req.target);
  EXPECT_EQ(decoded->deadline_micros, req.deadline_micros);
  // The type byte is checked: the same bytes under another type are
  // not a request.
  std::string retyped = body;
  retyped[0] = static_cast<char>(wire::kQueryReplyV2);
  EXPECT_FALSE(wire::DecodeQueryRequestV2(retyped).has_value());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeQueryRequestV2(body.substr(0, cut)).has_value())
        << "cut " << cut;
  }
  EXPECT_FALSE(wire::DecodeQueryRequestV2(body + "x").has_value());

  wire::QueryResponse resp;
  resp.request_id = 42;
  resp.status = wire::Status::kOk;
  resp.distance = 777;
  resp.server_latency_ns = 888;
  resp.path = {1, 2, 3};
  const std::string rbody = wire::EncodeQueryResponseV2(resp);
  EXPECT_EQ(wire::PeekType(rbody), wire::kQueryReplyV2);
  const auto rdec = wire::DecodeQueryResponseV2(rbody);
  ASSERT_TRUE(rdec.has_value());
  EXPECT_EQ(rdec->request_id, 42u);
  EXPECT_EQ(rdec->status, resp.status);
  EXPECT_EQ(rdec->distance, 777u);
  EXPECT_EQ(rdec->server_latency_ns, 888u);
  EXPECT_EQ(rdec->path, resp.path);
  std::string rretyped = rbody;
  rretyped[0] = static_cast<char>(wire::kQueryV2);
  EXPECT_FALSE(wire::DecodeQueryResponseV2(rretyped).has_value());
  // Declared path length no longer matches the remaining bytes.
  EXPECT_FALSE(
      wire::DecodeQueryResponseV2(rbody.substr(0, rbody.size() - 4))
          .has_value());
  EXPECT_FALSE(wire::DecodeQueryResponseV2(rbody + "zzzz").has_value());
}

TEST(Wire, RetiredQueryTypesAreNotMessages) {
  // Types 1 and 4 carried the id-less point-query pair; they must stay
  // unassigned so the server hangs up on a client still sending them.
  for (const char type : {'\x01', '\x04'}) {
    EXPECT_FALSE(wire::PeekType(std::string(1, type)).has_value());
    EXPECT_FALSE(wire::PeekType(std::string(1, type) + std::string(20, '\0'))
                     .has_value());
  }
}

TEST(Wire, StatsResponseV3GaugesRoundTrip) {
  wire::StatsResponse stats;
  stats.served = 7;
  stats.write_queue_bytes = 123456;
  stats.idle_reaped = 9;
  stats.loop_connections = {3, 0, 5};
  stats.open_connections = 8;
  const std::string body = wire::EncodeStatsResponse(stats);
  const auto decoded = wire::DecodeStatsResponse(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->write_queue_bytes, 123456u);
  EXPECT_EQ(decoded->idle_reaped, 9u);
  EXPECT_EQ(decoded->loop_connections, (std::vector<uint64_t>{3, 0, 5}));
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeStatsResponse(body.substr(0, cut)).has_value())
        << "cut " << cut;
  }

  // A server with more than 255 loops still sends a decodable reply.
  stats.loop_connections.assign(300, 0);
  for (size_t i = 0; i < stats.loop_connections.size(); ++i) {
    stats.loop_connections[i] = i * 7;
  }
  stats.stages.push_back(wire::StageStatWire{4, 11, 1200, 3400});
  const auto many = wire::DecodeStatsResponse(wire::EncodeStatsResponse(stats));
  ASSERT_TRUE(many.has_value());
  EXPECT_EQ(many->loop_connections, stats.loop_connections);
  ASSERT_EQ(many->stages.size(), 1u);
  EXPECT_EQ(many->stages[0].p99_ns, 3400u);

  // A count claiming more entries than the body holds is rejected. The
  // loop count sits right after the 2-byte header and 20 u64 fields.
  std::string lying = body;
  const uint32_t claimed = UINT32_MAX;
  std::memcpy(lying.data() + 2 + 20 * sizeof(uint64_t), &claimed,
              sizeof(claimed));
  EXPECT_FALSE(wire::DecodeStatsResponse(lying).has_value());
}

TEST(Wire, TraceConfigRoundTripsPartialKnobs) {
  {
    wire::TraceConfigRequest req;
    req.sample_every = 10;
    req.slow_micros = 2500;
    const auto decoded =
        wire::DecodeTraceConfigRequest(wire::EncodeTraceConfigRequest(req));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(decoded->sample_every.has_value());
    ASSERT_TRUE(decoded->slow_micros.has_value());
    EXPECT_EQ(*decoded->sample_every, 10u);
    EXPECT_EQ(*decoded->slow_micros, 2500u);
  }
  {
    wire::TraceConfigRequest req;  // neither knob: a pure read
    const auto decoded =
        wire::DecodeTraceConfigRequest(wire::EncodeTraceConfigRequest(req));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded->sample_every.has_value());
    EXPECT_FALSE(decoded->slow_micros.has_value());
  }
  {
    wire::TraceConfigRequest req;
    req.slow_micros = 0;  // 0 is meaningful (capture everything)
    const std::string body = wire::EncodeTraceConfigRequest(req);
    const auto decoded = wire::DecodeTraceConfigRequest(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded->sample_every.has_value());
    ASSERT_TRUE(decoded->slow_micros.has_value());
    EXPECT_EQ(*decoded->slow_micros, 0u);

    // An undefined mask bit is a malformed frame.
    std::string bad_mask = body;
    bad_mask[1] = 0x7;
    EXPECT_FALSE(wire::DecodeTraceConfigRequest(bad_mask).has_value());
  }

  wire::TraceConfigResponse resp;
  resp.sample_every = 4;
  resp.slow_micros = kTraceSlowDisabled;
  const auto decoded =
      wire::DecodeTraceConfigResponse(wire::EncodeTraceConfigResponse(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sample_every, 4u);
  EXPECT_EQ(decoded->slow_micros, kTraceSlowDisabled);
}

TEST(Wire, TechniqueIdsRoundTrip) {
  for (const char* name : {"any", "bidi", "ch", "alt", "hl"}) {
    EXPECT_EQ(wire::TechniqueName(wire::TechniqueId(name)), name);
  }
  EXPECT_EQ(wire::TechniqueId("no-such-technique"), wire::kAnyTechnique);
}

TEST(Wire, KnnRequestRoundTrips) {
  wire::KnnRequest req;
  req.method = wire::KnnMethod::kIer;
  req.category = 3;
  req.k = 17;
  req.source = 987654;
  req.deadline_micros = 4200;
  const std::string body = wire::EncodeKnnRequest(req);
  EXPECT_EQ(wire::PeekType(body), wire::kKnnQuery);
  const auto decoded = wire::DecodeKnnRequest(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->method, req.method);
  EXPECT_EQ(decoded->category, req.category);
  EXPECT_EQ(decoded->k, req.k);
  EXPECT_EQ(decoded->source, req.source);
  EXPECT_EQ(decoded->deadline_micros, req.deadline_micros);

  // An undefined method byte is a malformed frame, not a surprise enum.
  std::string bad_method = body;
  bad_method[1] = 0x7;
  EXPECT_FALSE(wire::DecodeKnnRequest(bad_method).has_value());

  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeKnnRequest(body.substr(0, cut)).has_value())
        << "cut " << cut;
  }
  EXPECT_FALSE(wire::DecodeKnnRequest(body + "x").has_value());
}

TEST(Wire, OneToManyRequestRoundTrips) {
  wire::OneToManyRequest req;
  req.category = 2;
  req.source = 31337;
  req.deadline_micros = 900;
  const std::string body = wire::EncodeOneToManyRequest(req);
  EXPECT_EQ(wire::PeekType(body), wire::kOneToManyQuery);
  const auto decoded = wire::DecodeOneToManyRequest(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->category, req.category);
  EXPECT_EQ(decoded->source, req.source);
  EXPECT_EQ(decoded->deadline_micros, req.deadline_micros);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        wire::DecodeOneToManyRequest(body.substr(0, cut)).has_value())
        << "cut " << cut;
  }
  EXPECT_FALSE(wire::DecodeOneToManyRequest(body + "x").has_value());
}

TEST(Wire, KnnResponseRoundTripsUnderBothReplyTypes) {
  wire::KnnResponse resp;
  resp.status = wire::Status::kOk;
  resp.server_latency_ns = 123456789;
  resp.entries = {{42, 1000}, {7, 2500}, {99, 2500}};
  for (const wire::MessageType reply_type :
       {wire::kKnnReply, wire::kOneToManyReply}) {
    const std::string body = wire::EncodeKnnResponse(reply_type, resp);
    EXPECT_EQ(wire::PeekType(body), reply_type);
    const auto decoded = wire::DecodeKnnResponse(reply_type, body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, resp.status);
    EXPECT_EQ(decoded->server_latency_ns, resp.server_latency_ns);
    EXPECT_EQ(decoded->entries, resp.entries);
    // The wrong reply type must not decode a frame of the other kind.
    const wire::MessageType other = reply_type == wire::kKnnReply
                                        ? wire::kOneToManyReply
                                        : wire::kKnnReply;
    EXPECT_FALSE(wire::DecodeKnnResponse(other, body).has_value());
    // The declared entry count must match the remaining bytes exactly.
    EXPECT_FALSE(wire::DecodeKnnResponse(
                     reply_type, body.substr(0, body.size() - 1))
                     .has_value());
    EXPECT_FALSE(
        wire::DecodeKnnResponse(reply_type, body + "zzzz").has_value());
  }

  // An empty entry list with kOk round-trips: a complete OK answer.
  resp.entries.clear();
  const std::string body = wire::EncodeKnnResponse(wire::kKnnReply, resp);
  const auto decoded = wire::DecodeKnnResponse(wire::kKnnReply, body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, wire::Status::kOk);
  EXPECT_TRUE(decoded->entries.empty());
}

TEST(Wire, KnnMethodNamesRoundTrip) {
  EXPECT_STREQ(wire::KnnMethodName(wire::KnnMethod::kBucketCh), "bucket-ch");
  EXPECT_STREQ(wire::KnnMethodName(wire::KnnMethod::kIer), "ier");
}

// --- End-to-end over loopback ---

// An index whose every query takes a configurable wall time: makes
// deadline and drain interleavings deterministic.
class SlowIndex : public PathIndex {
 public:
  SlowIndex(const Graph& g, std::chrono::milliseconds delay)
      : inner_(g), delay_(delay) {}

  std::string Name() const override { return "SlowBiDi"; }
  std::unique_ptr<QueryContext> NewContext() const override {
    return inner_.NewContext();
  }
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override {
    std::this_thread::sleep_for(delay_);
    return inner_.DistanceQuery(ctx, s, t);
  }
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override {
    std::this_thread::sleep_for(delay_);
    return inner_.PathQuery(ctx, s, t);
  }
  size_t IndexBytes() const override { return inner_.IndexBytes(); }

 private:
  BidirectionalDijkstra inner_;
  std::chrono::milliseconds delay_;
};

std::unique_ptr<BlockingClient> MustConnect(uint16_t port) {
  std::string error;
  auto client = BlockingClient::Connect("127.0.0.1", port, &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

// Reads one stage's window out of a trace JSONL record; false if the
// stage is absent.
bool StageWindow(const std::string& record, const char* stage,
                 uint64_t* start, uint64_t* end) {
  const std::string key =
      std::string("{\"stage\":\"") + stage + "\",\"start_ns\":";
  const size_t at = record.find(key);
  if (at == std::string::npos) return false;
  char* rest = nullptr;
  *start = std::strtoull(record.c_str() + at + key.size(), &rest, 10);
  const char kEndKey[] = ",\"end_ns\":";
  if (std::strncmp(rest, kEndKey, sizeof(kEndKey) - 1) != 0) return false;
  *end = std::strtoull(rest + sizeof(kEndKey) - 1, nullptr, 10);
  return true;
}

TEST(QueryServer, AnswersDistanceAndPathQueriesCorrectly) {
  const Graph g = TestNetwork(400, 3);
  ChIndex ch(g);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  Dijkstra oracle(g);
  for (auto [s, t] : RandomPairs(g, 50, 23)) {
    const Distance truth = oracle.Run(s, t);
    wire::QueryRequest req;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
    if (truth == kInfDistance) {
      EXPECT_EQ(resp.status, wire::Status::kUnreachable);
    } else {
      EXPECT_EQ(resp.status, wire::Status::kOk);
      EXPECT_EQ(resp.distance, truth);
      EXPECT_TRUE(resp.path.empty());  // distance queries carry no path
    }

    req.kind = wire::QueryKind::kPath;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
    if (truth != kInfDistance) {
      ASSERT_EQ(resp.status, wire::Status::kOk);
      ASSERT_FALSE(resp.path.empty());
      EXPECT_EQ(resp.path.front(), s);
      EXPECT_EQ(resp.path.back(), t);
      EXPECT_TRUE(IsValidPath(g, resp.path));
      EXPECT_EQ(PathWeight(g, resp.path), truth);
    }
  }
  server.Shutdown();
}

TEST(QueryServer, RejectsBadRequests) {
  const Graph g = TestNetwork(200, 5);
  BidirectionalDijkstra index(g);
  QueryServer server(index, wire::TechniqueId("bidi"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  wire::QueryRequest req;
  req.source = g.NumVertices();  // out of range
  req.target = 0;
  wire::QueryResponse resp;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  req.source = 0;
  req.technique = wire::TechniqueId("ch");  // server hosts bidi
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  // kAnyTechnique matches whatever the server hosts.
  req.technique = wire::kAnyTechnique;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_NE(resp.status, wire::Status::kBadRequest);

  const wire::StatsResponse stats = server.Stats();
  EXPECT_EQ(stats.bad_requests, 2u);
  server.Shutdown();
}

// Reads one QUERY_REPLY2 per expected reply and returns their statuses
// keyed by request id.
std::map<uint64_t, wire::Status> ReadReplyStatuses(int fd, size_t count) {
  std::map<uint64_t, wire::Status> status;
  for (size_t i = 0; i < count; ++i) {
    std::string body;
    EXPECT_TRUE(ReadFrame(fd, &body, wire::kMaxFrameBytes)) << "reply " << i;
    const auto resp = wire::DecodeQueryResponseV2(body);
    EXPECT_TRUE(resp.has_value()) << "reply " << i;
    if (!resp.has_value()) break;
    status[resp->request_id] = resp->status;
  }
  return status;
}

TEST(QueryServer, ShedsQueuedRequestsPastTheirDeadline) {
  const Graph g = TestNetwork(100, 9);
  SlowIndex slow(g, std::chrono::milliseconds(300));
  QueryServer server(slow, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // One write carries both frames, so the server reads them together.
  // The second waits ~300 ms behind the first's execution but budgets
  // only 10 ms: it is shed without running.
  ScopedFd conn = ConnectTcp("127.0.0.1", server.Port(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  wire::QueryRequest slow_req;
  slow_req.request_id = 1;
  wire::QueryRequest budgeted;
  budgeted.request_id = 2;
  budgeted.deadline_micros = 10000;
  ASSERT_TRUE(WriteFrames(conn.get(), {wire::EncodeQueryRequestV2(slow_req),
                                       wire::EncodeQueryRequestV2(budgeted)}));
  auto status = ReadReplyStatuses(conn.get(), 2);
  EXPECT_NE(status[1], wire::Status::kDeadlineExceeded);
  EXPECT_EQ(status[2], wire::Status::kDeadlineExceeded);
  EXPECT_EQ(server.Stats().shed_deadline, 1u);
  server.Shutdown();
}

TEST(QueryServer, DrainsInFlightRequestsOnShutdown) {
  const Graph g = TestNetwork(100, 11);
  SlowIndex slow(g, std::chrono::milliseconds(200));
  QueryServer server(slow, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const uint16_t port = server.Port();

  // A request that will still be running when the drain starts.
  std::thread in_flight([&] {
    auto c = MustConnect(port);
    if (c == nullptr) return;
    wire::QueryRequest req;
    wire::QueryResponse resp;
    std::string err;
    // Drain must answer this, not drop it.
    EXPECT_TRUE(c->Query(req, &resp, &err)) << err;
    EXPECT_TRUE(resp.status == wire::Status::kOk ||
                resp.status == wire::Status::kUnreachable)
        << wire::StatusName(resp.status);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Admin hangs up the server mid-query.
  auto admin = MustConnect(port);
  ASSERT_NE(admin, nullptr);
  ASSERT_TRUE(admin->SendShutdown(&error)) << error;
  EXPECT_TRUE(
      server.WaitForShutdownRequest(std::chrono::milliseconds(2000)));

  // New requests on the draining server are refused explicitly (until
  // Shutdown() closes the connections).
  wire::QueryRequest req;
  wire::QueryResponse resp;
  if (admin->Query(req, &resp, &error)) {
    EXPECT_EQ(resp.status, wire::Status::kShuttingDown);
  }

  server.Shutdown();
  in_flight.join();
}

// Several clients at once on the default two event loops. Six threads
// run closed-loop distance and path queries, each answer checked against
// Dijkstra; then four threads keep sending while an admin connection
// sends SHUTDOWN, and every request gets a reply: an answer or a
// SHUTTING_DOWN refusal. A clean close between requests is the only
// other way a connection may end.
TEST(QueryServer, ConcurrentClientsAreAnsweredAndDrainedWithoutDrops) {
  const Graph g = TestNetwork(1200, 42);
  const ChIndex ch(g);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const uint16_t port = server.Port();

  struct Tally {
    uint64_t answered = 0;
    uint64_t mismatches = 0;
    uint64_t refused = 0;       // SHUTTING_DOWN replies
    uint64_t closed = 0;        // clean close between requests
    uint64_t failures = 0;      // transport errors and other statuses
    std::string first_failure;  // what went wrong first, for the message
  };
  // Sends alternating distance and path queries until `limit` are
  // answered or the drain refuses one; checks every answer.
  auto drive = [&](uint64_t seed, size_t limit, std::atomic<size_t>* live,
                   Tally* tally) {
    auto fail = [tally](const std::string& what) {
      if (tally->failures++ == 0) tally->first_failure = what;
    };
    std::string err;
    auto client = BlockingClient::Connect("127.0.0.1", port, &err);
    if (client == nullptr) return fail("connect: " + err);
    Dijkstra oracle(g);
    Rng rng(seed);
    for (size_t i = 0; i < limit; ++i) {
      wire::QueryRequest req;
      req.kind = i % 2 == 0 ? wire::QueryKind::kDistance
                            : wire::QueryKind::kPath;
      req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      wire::QueryResponse resp;
      if (!client->Query(req, &resp, &err)) {
        if (err == "server closed the connection") {
          ++tally->closed;
        } else {
          fail("request " + std::to_string(i) + ": " + err);
        }
        return;
      }
      if (resp.status == wire::Status::kShuttingDown) {
        ++tally->refused;
        return;
      }
      if (resp.status != wire::Status::kOk &&
          resp.status != wire::Status::kUnreachable) {
        return fail(std::string("status ") + wire::StatusName(resp.status));
      }
      const Distance truth = oracle.Run(req.source, req.target);
      const Distance got =
          resp.status == wire::Status::kOk ? resp.distance : kInfDistance;
      bool right = got == truth;
      if (right && truth != kInfDistance &&
          req.kind == wire::QueryKind::kPath) {
        right = !resp.path.empty() && resp.path.front() == req.source &&
                resp.path.back() == req.target &&
                IsValidPath(g, resp.path) && PathWeight(g, resp.path) == truth;
      }
      if (!right) ++tally->mismatches;
      ++tally->answered;
      if (live != nullptr) live->fetch_add(1);
    }
  };

  constexpr size_t kClients = 6;
  constexpr size_t kQueries = 150;
  std::vector<Tally> served(kClients);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(drive, 100 + c, kQueries, nullptr, &served[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_EQ(served[c].failures, 0u) << served[c].first_failure;
    EXPECT_EQ(served[c].answered, kQueries);
    EXPECT_EQ(served[c].mismatches, 0u);
  }

  constexpr size_t kDrainClients = 4;
  std::vector<Tally> drained(kDrainClients);
  std::atomic<size_t> answered{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kDrainClients; ++c) {
    threads.emplace_back(drive, 200 + c, size_t{1} << 20, &answered,
                         &drained[c]);
  }
  // Let traffic build, then pull the plug from an admin connection.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (answered.load() < 20 * kDrainClients &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto admin = MustConnect(port);
  const bool requested =
      admin != nullptr && admin->SendShutdown(&error) &&
      server.WaitForShutdownRequest(std::chrono::milliseconds(2000));
  EXPECT_TRUE(requested) << error;
  // The clients stop at their first refusal. Without a drain to refuse
  // them they would not, so then the server is stopped under them.
  if (!requested) server.Shutdown();
  for (std::thread& t : threads) t.join();
  server.Shutdown();

  EXPECT_GE(answered.load(), 20 * kDrainClients);
  for (size_t c = 0; c < kDrainClients; ++c) {
    SCOPED_TRACE("draining client " + std::to_string(c));
    EXPECT_EQ(drained[c].failures, 0u) << drained[c].first_failure;
    EXPECT_EQ(drained[c].mismatches, 0u);
    EXPECT_EQ(drained[c].refused + drained[c].closed, 1u);
  }
}

TEST(QueryServer, StatsCountServedQueries) {
  const Graph g = TestNetwork(200, 13);
  BidirectionalDijkstra index(g);
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  for (auto [s, t] : RandomPairs(g, 20, 31)) {
    wire::QueryRequest req;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }
  wire::StatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.served, 20u);
  EXPECT_EQ(stats.distance_count, 20u);
  EXPECT_EQ(stats.path_count, 0u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  server.Shutdown();
}

TEST(QueryServer, CountsEachReplyBeforeSendingIt) {
  // A client that reads STATS the moment a reply lands must already see
  // that reply counted, whatever its status: every counter moves before
  // the reply is queued, so this holds on every schedule.
  const Graph g = TestNetwork(100, 15);
  BidirectionalDijkstra index(g);
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  wire::QueryRequest bad;
  bad.source = g.NumVertices();  // out of range
  wire::QueryRequest good;
  wire::QueryResponse resp;
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(client->Query(bad, &resp, &error)) << error;
    ASSERT_EQ(resp.status, wire::Status::kBadRequest);
    EXPECT_EQ(server.Stats().bad_requests, i);
    ASSERT_TRUE(client->Query(good, &resp, &error)) << error;
    EXPECT_EQ(server.Stats().served, i);
  }

  // Shed replies too: a budget-blown frame behind another of its read,
  // then a request on the draining server.
  ScopedFd conn = ConnectTcp("127.0.0.1", server.Port(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  wire::QueryRequest first;
  first.request_id = 1;
  first.kind = wire::QueryKind::kPath;
  first.target = g.NumVertices() - 1;
  wire::QueryRequest budgeted;
  budgeted.request_id = 2;
  budgeted.deadline_micros = 1;
  std::vector<std::string> burst = {wire::EncodeQueryRequestV2(first)};
  for (int i = 0; i < 8; ++i) burst.push_back(wire::EncodeQueryRequestV2(budgeted));
  ASSERT_TRUE(WriteFrames(conn.get(), burst));
  uint64_t shed = 0;
  for (size_t i = 0; i < burst.size(); ++i) {
    std::string body;
    ASSERT_TRUE(ReadFrame(conn.get(), &body, wire::kMaxFrameBytes));
    const auto r = wire::DecodeQueryResponseV2(body);
    ASSERT_TRUE(r.has_value());
    if (r->status == wire::Status::kDeadlineExceeded) {
      ++shed;
      EXPECT_GE(server.Stats().shed_deadline, shed);
    }
  }
  EXPECT_GE(shed, 1u);

  server.RequestShutdown();
  ASSERT_TRUE(client->Query(good, &resp, &error)) << error;
  ASSERT_EQ(resp.status, wire::Status::kShuttingDown);
  EXPECT_EQ(server.Stats().shed_draining, 1u);
  server.Shutdown();
}

TEST(QueryServer, EnforcesConnectionCap) {
  const Graph g = TestNetwork(100, 17);
  BidirectionalDijkstra index(g);
  ServerOptions options;
  options.max_connections = 2;
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto c1 = MustConnect(server.Port());
  auto c2 = MustConnect(server.Port());
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  // Keep both counted: run one query each so the handlers are live.
  wire::QueryRequest req;
  wire::QueryResponse resp;
  ASSERT_TRUE(c1->Query(req, &resp, &error)) << error;
  ASSERT_TRUE(c2->Query(req, &resp, &error)) << error;

  // The third connection is accepted by the kernel but closed by the
  // server at the cap: its first round trip fails.
  auto c3 = BlockingClient::Connect("127.0.0.1", server.Port(), &error);
  bool rejected = c3 == nullptr;
  if (!rejected) {
    rejected = !c3->Query(req, &resp, &error);
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(server.Stats().connections_rejected, 1u);
  server.Shutdown();
}

TEST(QueryServer, TracedRunWritesJsonlAndServesStageStats) {
  const Graph g = TestNetwork(200, 21);
  BidirectionalDijkstra index(g);
  ServerOptions options;
  options.trace_sample_every = 1;  // capture every request
  options.trace_out = testing::TempDir() + "/server_test_traces.jsonl";
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  for (auto [s, t] : RandomPairs(g, 25, 37)) {
    wire::QueryRequest req;
    req.source = s;
    req.target = t;
    wire::QueryResponse resp;
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }

  // Live introspection mid-run: this connection is still open, and the
  // tracer has finished one trace per query.
  wire::StatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  EXPECT_GE(stats.open_connections, 1u);
  EXPECT_GE(stats.traces_finished, 25u);
  EXPECT_GE(stats.traces_captured, 25u);
  ASSERT_FALSE(stats.stages.empty());
  // Requests run to completion on their loop: queue_wait and
  // batch_assembly record nothing.
  std::map<uint8_t, uint64_t> stage_counts;
  for (const wire::StageStatWire& st : stats.stages) {
    stage_counts[st.stage] = st.count;
  }
  for (const TraceStage stage : {TraceStage::kEnqueue, TraceStage::kExecute,
                                 TraceStage::kReplyWrite}) {
    EXPECT_GE(stage_counts[static_cast<uint8_t>(stage)], 25u)
        << TraceStageName(stage);
  }
  for (const TraceStage stage :
       {TraceStage::kQueueWait, TraceStage::kBatchAssembly}) {
    EXPECT_EQ(stage_counts.count(static_cast<uint8_t>(stage)), 0u)
        << TraceStageName(stage);
  }

  client.reset();
  server.Shutdown();  // stops the exporter: the file is complete

  std::FILE* f = std::fopen(options.trace_out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    content.push_back(static_cast<char>(c));
  }
  std::fclose(f);
  std::remove(options.trace_out.c_str());

  // The full lifecycle shows up: the first request carries the accept
  // stage, every request carries frame_read through reply_write.
  EXPECT_NE(content.find("\"stage\":\"accept\""), std::string::npos);
  for (const char* stage :
       {"frame_read", "enqueue", "execute", "reply_write"}) {
    EXPECT_NE(content.find(std::string("\"stage\":\"") + stage + "\""),
              std::string::npos)
        << stage;
  }
  for (const char* stage : {"queue_wait", "batch_assembly"}) {
    EXPECT_EQ(content.find(std::string("\"stage\":\"") + stage + "\""),
              std::string::npos)
        << stage;
  }
  EXPECT_NE(content.find("\"status\":\"OK\""), std::string::npos);

  // The server-side stages tile each request: from enqueue start to
  // reply_write end, at least 90% of the time lies inside a named stage.
  size_t records = 0;
  std::istringstream lines(content);
  for (std::string line; std::getline(lines, line);) {
    uint64_t covered = 0, first = 0, last = 0;
    for (const char* stage : {"enqueue", "execute", "reply_write"}) {
      uint64_t start = 0, end = 0;
      ASSERT_TRUE(StageWindow(line, stage, &start, &end)) << stage << line;
      covered += end - start;
      if (first == 0) first = start;
      last = end;
    }
    EXPECT_GE(covered * 10, (last - first) * 9) << line;
    ++records;
  }
  EXPECT_GE(records, 25u);
}

// Reads one counter out of a trace JSONL record's "counters" object.
uint64_t TraceCounter(const std::string& record, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const size_t at = record.find(key, record.find("\"counters\":"));
  EXPECT_NE(at, std::string::npos) << name << " in " << record;
  if (at == std::string::npos) return 0;
  return std::strtoull(record.c_str() + at + key.size(), nullptr, 10);
}

TEST(QueryServer, PathRequestRunsOneSearch) {
  // A QUERY2 path request is answered by one PathQuery: its traced
  // counters are exactly a standalone CH path query's, and the reply's
  // distance is the one that query reported.
  const Graph g = TestNetwork(400, 3);
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  VertexId s = 0, t = 0;
  for (const auto& [a, b] : RandomPairs(g, 20, 29)) {
    ch.PathQuery(ctx.get(), a, b);
    if (ctx->counters.shortcuts_unpacked > 0) {
      s = a;
      t = b;
      break;
    }
  }
  const Path expected = ch.PathQuery(ctx.get(), s, t);
  ASSERT_GT(ctx->counters.shortcuts_unpacked, 0u);

  ServerOptions options;
  options.trace_sample_every = 1;
  options.trace_out = testing::TempDir() + "/server_path_traces.jsonl";
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  wire::QueryRequest req;
  req.kind = wire::QueryKind::kPath;
  req.source = s;
  req.target = t;
  wire::QueryResponse resp;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kOk);
  EXPECT_EQ(resp.path, expected);
  EXPECT_EQ(resp.distance, ctx->path_distance);
  client.reset();
  server.Shutdown();  // stops the exporter: the file is complete

  std::ifstream in(options.trace_out);
  std::string record;
  ASSERT_TRUE(std::getline(in, record));
  std::remove(options.trace_out.c_str());
  EXPECT_EQ(TraceCounter(record, "vertices_settled"),
            ctx->counters.vertices_settled);
  EXPECT_EQ(TraceCounter(record, "heap_pops"), ctx->counters.heap_pops);
  EXPECT_EQ(TraceCounter(record, "shortcuts_unpacked"),
            ctx->counters.shortcuts_unpacked);
}

TEST(QueryServer, TraceConfigOverWireTakesEffect) {
  const Graph g = TestNetwork(200, 23);
  BidirectionalDijkstra index(g);
  // Tracing starts OFF (defaults): requests run untraced.
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  wire::QueryRequest req;
  wire::QueryResponse resp;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  wire::StatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.traces_finished, 0u);

  // Flip sampling on over the wire; the ack echoes the live settings.
  wire::TraceConfigRequest cfg;
  cfg.sample_every = 2;
  wire::TraceConfigResponse effective;
  ASSERT_TRUE(client->ConfigureTracing(cfg, &effective, &error)) << error;
  EXPECT_EQ(effective.sample_every, 2u);
  EXPECT_EQ(effective.slow_micros, kTraceSlowDisabled);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  EXPECT_GE(stats.traces_finished, 10u);
  EXPECT_GE(stats.traces_captured, 5u);  // every 2nd head-sampled

  // And off again: subsequent requests leave the counters untouched.
  cfg.sample_every = 0;
  ASSERT_TRUE(client->ConfigureTracing(cfg, &effective, &error)) << error;
  EXPECT_EQ(effective.sample_every, 0u);
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  const uint64_t frozen = stats.traces_finished;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  }
  ASSERT_TRUE(client->GetStats(&stats, &error)) << error;
  EXPECT_EQ(stats.traces_finished, frozen);
  server.Shutdown();
}

TEST(QueryServer, AnswersKnnAndOneToManyCorrectly) {
  const Graph g = TestNetwork(400, 27);
  ChIndex ch(g);
  PoiConfig config;
  config.categories = {{"restaurant", 0.03}, {"fuel", 0.005},
                       {"empty", 0.0}};
  config.seed = 31;
  const PoiSet pois = PoiSet::Generate(g, config);
  KnnBucketIndex bucket(ch, pois);
  IerKnnIndex ier(g, ch, pois);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {},
                     KnnServing{&pois, &bucket, &ier});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  std::vector<std::vector<VertexId>> cat_vecs;
  for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
    const auto span = pois.Vertices(c);
    cat_vecs.emplace_back(span.begin(), span.end());
  }

  Rng rng(55);
  for (int qi = 0; qi < 60; ++qi) {
    const auto s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const auto c =
        static_cast<uint32_t>(rng.NextBelow(pois.NumCategories()));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBelow(20));
    const auto truth = KnnByDijkstra(g, cat_vecs[c], s, k);

    wire::KnnRequest req;
    req.method = qi % 2 == 0 ? wire::KnnMethod::kBucketCh
                             : wire::KnnMethod::kIer;
    req.category = c;
    req.k = k;
    req.source = s;
    wire::KnnResponse resp;
    ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
    ASSERT_EQ(resp.status, wire::Status::kOk);
    ASSERT_EQ(resp.entries.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(resp.entries[i].first, truth[i].poi);
      EXPECT_EQ(resp.entries[i].second, truth[i].dist);
    }

    wire::OneToManyRequest otm;
    otm.category = c;
    otm.source = s;
    const auto all = KnnByDijkstra(g, cat_vecs[c], s, cat_vecs[c].size());
    ASSERT_TRUE(client->OneToMany(otm, &resp, &error)) << error;
    ASSERT_EQ(resp.status, wire::Status::kOk);
    ASSERT_EQ(resp.entries.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(resp.entries[i].first, all[i].poi);
      EXPECT_EQ(resp.entries[i].second, all[i].dist);
    }
  }

  // The kNN latency histograms show up in the stats snapshot.
  EXPECT_GT(server.Stats().served, 0u);
  server.Shutdown();
}

TEST(QueryServer, RejectsBadKnnRequests) {
  const Graph g = TestNetwork(200, 29);
  ChIndex ch(g);
  PoiConfig config;
  config.categories = {{"restaurant", 0.05}};
  config.seed = 33;
  const PoiSet pois = PoiSet::Generate(g, config);
  KnnBucketIndex bucket(ch, pois);
  // No IER backend: ier-method requests must be rejected cleanly.
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {},
                     KnnServing{&pois, &bucket, nullptr});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  wire::KnnRequest req;
  req.k = 3;
  req.source = g.NumVertices();  // out of range
  wire::KnnResponse resp;
  ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  req.source = 0;
  req.category = pois.NumCategories();  // out of range
  ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  req.category = 0;
  req.method = wire::KnnMethod::kIer;  // backend absent
  ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  req.method = wire::KnnMethod::kBucketCh;  // valid again
  ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kOk);

  wire::OneToManyRequest otm;
  otm.category = 1;  // out of range
  otm.source = 0;
  ASSERT_TRUE(client->OneToMany(otm, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  EXPECT_GE(server.Stats().bad_requests, 4u);
  server.Shutdown();
}

TEST(QueryServer, KnnDisabledServerRejectsKnnFrames) {
  const Graph g = TestNetwork(100, 31);
  BidirectionalDijkstra index(g);
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);

  wire::KnnRequest req;
  req.k = 1;
  wire::KnnResponse resp;
  ASSERT_TRUE(client->Knn(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  wire::OneToManyRequest otm;
  ASSERT_TRUE(client->OneToMany(otm, &resp, &error)) << error;
  EXPECT_EQ(resp.status, wire::Status::kBadRequest);

  // Point queries still work on the same connection.
  wire::QueryRequest q;
  wire::QueryResponse qresp;
  ASSERT_TRUE(client->Query(q, &qresp, &error)) << error;
  EXPECT_NE(qresp.status, wire::Status::kBadRequest);
  server.Shutdown();
}

// Connects with a pinned-small SO_RCVBUF: keeps the kernel from absorbing
// unread replies, which would hide the server's write queue.
ScopedFd RawConnectSmallBuffers(uint16_t port, int rcvbuf) {
  std::string error;
  ScopedFd fd = ConnectTcp("127.0.0.1", port, &error, rcvbuf);
  EXPECT_TRUE(fd.valid()) << error;
  return fd;
}

TEST(QueryServer, PipelinedRequestsMatchById) {
  const Graph g = TestNetwork(300, 41);
  // Every query sleeps 20ms, so the pipelined burst is still being
  // answered while the second connection below is served.
  SlowIndex slow(g, std::chrono::milliseconds(20));
  QueryServer server(slow, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto pipe = MustConnect(server.Port());
  ASSERT_NE(pipe, nullptr);

  // Alternating path/distance requests, all outstanding at once.
  const auto pairs = RandomPairs(g, 5, 43);
  Dijkstra oracle(g);
  for (uint64_t i = 0; i < pairs.size(); ++i) {
    wire::QueryRequest req;
    req.request_id = 1000 + i;
    req.kind = i % 2 == 0 ? wire::QueryKind::kPath
                          : wire::QueryKind::kDistance;
    req.source = pairs[i].first;
    req.target = pairs[i].second;
    ASSERT_TRUE(pipe->Send(req, &error)) << error;
  }

  // While the pipelined burst is in flight, a round trip on a second
  // connection is still served.
  {
    auto other = MustConnect(server.Port());
    ASSERT_NE(other, nullptr);
    wire::QueryRequest req;
    req.source = pairs[0].first;
    req.target = pairs[0].second;
    wire::QueryResponse resp;
    ASSERT_TRUE(other->Query(req, &resp, &error)) << error;
    EXPECT_NE(resp.status, wire::Status::kBadRequest);
  }

  // The protocol lets replies arrive in any order: match them by id.
  std::map<uint64_t, wire::QueryResponse> by_id;
  for (size_t i = 0; i < pairs.size(); ++i) {
    wire::QueryResponse resp;
    ASSERT_TRUE(pipe->Recv(&resp, &error)) << error;
    by_id[resp.request_id] = std::move(resp);
  }

  // Every request answered exactly once, matched by id, correct result.
  ASSERT_EQ(by_id.size(), pairs.size());
  for (uint64_t i = 0; i < pairs.size(); ++i) {
    const auto it = by_id.find(1000 + i);
    ASSERT_NE(it, by_id.end()) << "request " << i << " unanswered";
    const wire::QueryResponse& resp = it->second;
    const Distance truth = oracle.Run(pairs[i].first, pairs[i].second);
    if (truth == kInfDistance) {
      EXPECT_EQ(resp.status, wire::Status::kUnreachable);
    } else {
      EXPECT_EQ(resp.status, wire::Status::kOk);
      EXPECT_EQ(resp.distance, truth);
      if (i % 2 == 0) {
        ASSERT_FALSE(resp.path.empty());
        EXPECT_EQ(PathWeight(g, resp.path), truth);
      }
    }
  }

  server.Shutdown();
}

// Raises the soft RLIMIT_NOFILE toward `want`, within the hard limit,
// and returns the soft limit now in force.
rlim_t RaiseFdLimit(rlim_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (rl.rlim_cur >= want) return rl.rlim_cur;
  rlimit raised = rl;
  raised.rlim_cur = std::min(want, rl.rlim_max);
  return ::setrlimit(RLIMIT_NOFILE, &raised) == 0 ? raised.rlim_cur
                                                  : rl.rlim_cur;
}

TEST(QueryServer, AnswersEveryRequestOnAThousandConnections) {
  // Each connection costs two fds in this process (client and server
  // side); keep 256 for the rest. A host whose hard limit is lower
  // gets as many connections as it allows.
  constexpr size_t kWanted = 1000;
  const rlim_t limit = RaiseFdLimit(2 * kWanted + 256);
  ASSERT_GT(limit, 256u + 2) << "RLIMIT_NOFILE " << limit;
  const size_t conns = std::min<size_t>(kWanted, (limit - 256) / 2);
  if (conns < kWanted) {
    std::printf("RLIMIT_NOFILE %llu: %zu connections\n",
                static_cast<unsigned long long>(limit), conns);
  }

  const Graph g = TestNetwork(400, 67);
  ChIndex ch(g);
  ServerOptions options;
  options.max_connections = conns;
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Every connection open, from this one thread, before any request.
  std::vector<std::unique_ptr<BlockingClient>> clients;
  clients.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    clients.push_back(MustConnect(server.Port()));
    ASSERT_NE(clients.back(), nullptr) << "connection " << c;
  }

  // One request on each, alternating distance and path, before any
  // reply is read: the server holds them all at once.
  const auto pairs = RandomPairs(g, conns, 71);
  for (size_t c = 0; c < conns; ++c) {
    wire::QueryRequest req;
    req.request_id = c;
    req.kind = c % 2 == 0 ? wire::QueryKind::kDistance
                          : wire::QueryKind::kPath;
    req.source = pairs[c].first;
    req.target = pairs[c].second;
    ASSERT_TRUE(clients[c]->Send(req, &error)) << "connection " << c << ": "
                                               << error;
  }

  Dijkstra oracle(g);
  for (size_t c = 0; c < conns; ++c) {
    SCOPED_TRACE("connection " + std::to_string(c));
    wire::QueryResponse resp;
    ASSERT_TRUE(clients[c]->Recv(&resp, &error)) << error;
    EXPECT_EQ(resp.request_id, c);
    const auto [s, t] = pairs[c];
    const Distance truth = oracle.Run(s, t);
    if (truth == kInfDistance) {
      EXPECT_EQ(resp.status, wire::Status::kUnreachable);
      continue;
    }
    ASSERT_EQ(resp.status, wire::Status::kOk);
    EXPECT_EQ(resp.distance, truth);
    if (c % 2 == 1) {
      ASSERT_FALSE(resp.path.empty());
      EXPECT_EQ(resp.path.front(), s);
      EXPECT_EQ(resp.path.back(), t);
      EXPECT_TRUE(IsValidPath(g, resp.path));
      EXPECT_EQ(PathWeight(g, resp.path), truth);
    }
  }

  // All of them were served, and all are still open: none was refused
  // at the cap or dropped.
  const wire::StatsResponse stats = server.Stats();
  EXPECT_EQ(stats.served, conns);
  EXPECT_EQ(stats.connections_accepted, conns);
  EXPECT_EQ(stats.connections_rejected, 0u);
  EXPECT_EQ(stats.open_connections, conns);
  server.Shutdown();
}

TEST(QueryServer, ClosesConnectionOnRetiredQueryFrame) {
  const Graph g = TestNetwork(100, 43);
  BidirectionalDijkstra index(g);
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Hand-built bodies of the retired pair — type 1 (u8 technique, u8
  // kind, u32 source, u32 target, u64 deadline) and type 4 (u8 status,
  // u64 distance, u64 latency, u32 path_len) — and a type never
  // assigned. Each is garbage now: the server hangs up without a reply.
  const std::string retired_query =
      std::string(1, '\x01') + std::string(2 + 4 + 4 + 8, '\0');
  const std::string retired_reply =
      std::string(1, '\x04') + std::string(1 + 8 + 8 + 4, '\0');
  const std::string unassigned = std::string(1, '\xc8') + "payload";
  for (const std::string& body : {retired_query, retired_reply, unassigned}) {
    SCOPED_TRACE("type " + std::to_string(static_cast<uint8_t>(body[0])));
    ScopedFd conn = ConnectTcp("127.0.0.1", server.Port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(WriteFrame(conn.get(), body));
    std::string reply;
    bool clean_eof = false;
    EXPECT_FALSE(
        ReadFrame(conn.get(), &reply, wire::kMaxFrameBytes, &clean_eof));
    EXPECT_TRUE(clean_eof);
  }
  EXPECT_EQ(server.Stats().served, 0u);
  EXPECT_EQ(server.Stats().bad_requests, 0u);

  // The server itself is unharmed: a fresh connection is answered.
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  wire::QueryRequest req;
  wire::QueryResponse resp;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_NE(resp.status, wire::Status::kBadRequest);
  server.Shutdown();
}

TEST(QueryServer, ClientRejectsReplyToAnotherRequestId) {
  // A peer that answers every QUERY2 with request_id + 1.
  uint16_t port = 0;
  std::string error;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  // Connected before the peer thread starts (the kernel completes the
  // handshake from the backlog), so no early return leaves it joinable.
  auto client = MustConnect(port);
  ASSERT_NE(client, nullptr);
  std::thread peer([&listen] {
    ScopedFd conn(::accept(listen.get(), nullptr, nullptr));
    std::string body;
    if (!conn.valid() ||
        !ReadFrame(conn.get(), &body, wire::kMaxFrameBytes)) {
      return;
    }
    const auto req = wire::DecodeQueryRequestV2(body);
    wire::QueryResponse resp;
    resp.request_id = req.has_value() ? req->request_id + 1 : 0;
    WriteFrame(conn.get(), wire::EncodeQueryResponseV2(resp));
  });

  wire::QueryRequest req;
  req.request_id = 77;
  wire::QueryResponse resp;
  error.clear();
  EXPECT_FALSE(client->Query(req, &resp, &error));
  EXPECT_FALSE(error.empty());
  peer.join();
}

TEST(QueryServer, WriteQueueHardCapShedsOverloaded) {
  const Graph g = TestNetwork(400, 47);
  ChIndex ch(g);
  ServerOptions options;
  options.write_queue_soft_cap = 0;    // no read pause: force the hard cap
  options.write_queue_hard_cap = 8192;
  options.sndbuf_bytes = 4096;         // kernel can't hide the queue
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ScopedFd conn = RawConnectSmallBuffers(server.Port(), 4096);
  const auto pairs = RandomPairs(g, 64, 51);

  // Waves of unread path queries: replies pile onto the connection's
  // write queue (the client is not reading), and once it passes the
  // hard cap the server starts shedding inline with OVERLOADED.
  constexpr int kWaves = 60, kPerWave = 10;
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kPerWave; ++i) {
      const auto& [s, t] = pairs[(w * kPerWave + i) % pairs.size()];
      wire::QueryRequest req;
      req.request_id = static_cast<uint64_t>(w * kPerWave + i);
      req.kind = wire::QueryKind::kPath;
      req.source = s;
      req.target = t;
      ASSERT_TRUE(WriteFrame(conn.get(), wire::EncodeQueryRequestV2(req)));
    }
    // Let the server answer each wave so replies actually accumulate
    // between waves instead of all frames decoding in one burst.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  uint64_t ok = 0, overloaded = 0;
  std::vector<bool> seen(kWaves * kPerWave, false);
  for (int i = 0; i < kWaves * kPerWave; ++i) {
    std::string body;
    bool clean_eof = false;
    ASSERT_TRUE(
        ReadFrame(conn.get(), &body, wire::kMaxFrameBytes, &clean_eof))
        << "reply " << i;
    const auto resp = wire::DecodeQueryResponseV2(body);
    ASSERT_TRUE(resp.has_value());
    ASSERT_LT(resp->request_id, seen.size());
    EXPECT_FALSE(seen[resp->request_id]) << "duplicate reply";
    seen[resp->request_id] = true;
    if (resp->status == wire::Status::kOk) ok++;
    if (resp->status == wire::Status::kOverloaded) overloaded++;
  }
  // Every request was answered — shed ones explicitly — and both
  // outcomes actually occurred.
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_GE(ok, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(server.Stats().shed_overloaded, overloaded);

  server.Shutdown();
}

TEST(QueryServer, IdleConnectionsAreReapedAndCounted) {
  const Graph g = TestNetwork(100, 53);
  BidirectionalDijkstra index(g);
  ServerOptions options;
  options.idle_timeout_ms = 100;
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto idle = MustConnect(server.Port());
  ASSERT_NE(idle, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // The reaped connection is dead: its next round trip fails.
  wire::QueryRequest req;
  wire::QueryResponse resp;
  EXPECT_FALSE(idle->Query(req, &resp, &error));

  // A fresh connection reads the event-loop gauges over the wire.
  auto fresh = MustConnect(server.Port());
  ASSERT_NE(fresh, nullptr);
  wire::StatsResponse stats;
  ASSERT_TRUE(fresh->GetStats(&stats, &error)) << error;
  EXPECT_GE(stats.idle_reaped, 1u);
  ASSERT_FALSE(stats.loop_connections.empty());
  uint64_t per_loop_sum = 0;
  for (const uint64_t n : stats.loop_connections) per_loop_sum += n;
  EXPECT_EQ(per_loop_sum, stats.open_connections);

  server.Shutdown();
}

TEST(QueryServer, SurvivesPeerClosingMidReply) {
  const Graph g = TestNetwork(300, 59);
  ChIndex ch(g);
  QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const auto pairs = RandomPairs(g, 20, 61);

  // Abusive clients: send a path query and slam the connection shut
  // (SO_LINGER 0 => RST) before reading the reply. The server's write
  // lands on a dead socket; without MSG_NOSIGNAL that's a SIGPIPE and
  // the whole process dies.
  for (int i = 0; i < 20; ++i) {
    ScopedFd conn = RawConnectSmallBuffers(server.Port(), 0);
    wire::QueryRequest req;
    req.request_id = static_cast<uint64_t>(i);
    req.kind = wire::QueryKind::kPath;
    req.source = pairs[i].first;
    req.target = pairs[i].second;
    ASSERT_TRUE(WriteFrame(conn.get(), wire::EncodeQueryRequestV2(req)));
    const linger hard{1, 0};
    ::setsockopt(conn.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    conn.Close();
  }

  // The server is still alive and still serves.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto client = MustConnect(server.Port());
  ASSERT_NE(client, nullptr);
  wire::QueryRequest req;
  req.source = pairs[0].first;
  req.target = pairs[0].second;
  wire::QueryResponse resp;
  ASSERT_TRUE(client->Query(req, &resp, &error)) << error;
  EXPECT_NE(resp.status, wire::Status::kBadRequest);

  server.Shutdown();
}

TEST(QueryServer, ShutdownIsIdempotentAndSafeWithoutStart) {
  const Graph g = TestNetwork(100, 19);
  BidirectionalDijkstra index(g);
  {
    QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
    server.Shutdown();  // never started
    server.Shutdown();
  }
  {
    QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), {});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    server.Shutdown();
    server.Shutdown();  // idempotent
  }  // destructor runs Shutdown() again
}

TEST(QueryServer, FailedStartStopsTraceExporter) {
  // Regression: Start() spawns the trace exporter before binding the
  // port, and a bind failure used to return without stopping it — the
  // exporter thread (and its open JSONL file) leaked until destruction.
  const Graph g = TestNetwork(100, 19);
  BidirectionalDijkstra index(g);

  // Occupy a port with a healthy server.
  QueryServer holder(index, wire::kAnyTechnique, g.NumVertices(), {});
  std::string error;
  ASSERT_TRUE(holder.Start(&error)) << error;

  ServerOptions options;
  options.port = holder.Port();  // guaranteed in use
  options.trace_out = testing::TempDir() + "/failed_start_traces.jsonl";
  QueryServer server(index, wire::kAnyTechnique, g.NumVertices(), options);
  EXPECT_FALSE(server.Start(&error));
  EXPECT_FALSE(server.tracer().ExporterRunning())
      << "failed Start must stop the exporter it spawned";
  holder.Shutdown();
  std::remove(options.trace_out.c_str());
}

}  // namespace
}  // namespace roadnet
