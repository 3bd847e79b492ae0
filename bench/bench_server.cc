// End-to-end serving benchmark and acceptance check for the network
// query service (src/server/). Runs an in-process QueryServer over
// loopback TCP and drives it with closed-loop client threads, proving
// the four serving properties the subsystem promises:
//
//   1. Correctness under concurrency: >= 4 connections, every sampled
//      distance matches a local Dijkstra oracle exactly.
//   2. Overload shedding: a client that pipelines and never reads pushes
//      its connection past the write-queue hard cap, and the server
//      answers explicit OVERLOADED instead of buffering without bound.
//   3. Deadline enforcement: in a pipelined burst sent with one write,
//      frames that waited past a tiny budget behind earlier frames of
//      the same read are shed with DEADLINE_EXCEEDED.
//   4. Graceful drain: a SHUTDOWN frame mid-traffic answers every
//      in-flight request before the server stops.
//
// Exits nonzero if any property fails — scripts/check.sh runs this (and
// the TSan build runs it too, covering the server's thread model).
// ROADNET_BENCH_FAST=1 shrinks the traffic volumes.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "obs/histogram.h"
#include "server/client.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/wire.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace roadnet;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

struct DriveResult {
  uint64_t ok = 0;
  uint64_t unreachable = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t draining = 0;
  uint64_t transport_errors = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  Histogram latency;
};

void Tally(wire::Status status, DriveResult* r) {
  switch (status) {
    case wire::Status::kOk: ++r->ok; break;
    case wire::Status::kUnreachable: ++r->unreachable; break;
    case wire::Status::kOverloaded: ++r->overloaded; break;
    case wire::Status::kDeadlineExceeded: ++r->deadline_exceeded; break;
    case wire::Status::kShuttingDown: ++r->draining; break;
    case wire::Status::kBadRequest: break;
  }
}

// Drives `per_conn` closed-loop queries on each of `connections`
// threads. verify_every > 0 checks distances against a per-thread
// Dijkstra oracle.
DriveResult Drive(const Graph& g, uint16_t port, size_t connections,
                  size_t per_conn, uint64_t deadline_us,
                  size_t verify_every, uint64_t seed) {
  std::vector<DriveResult> results(connections);
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < connections; ++tid) {
    threads.emplace_back([&, tid] {
      DriveResult& r = results[tid];
      std::string error;
      auto client = BlockingClient::Connect("127.0.0.1", port, &error);
      if (client == nullptr) {
        ++r.transport_errors;
        return;
      }
      std::unique_ptr<Dijkstra> oracle;
      if (verify_every > 0) oracle = std::make_unique<Dijkstra>(g);
      Rng rng(seed + tid);
      for (size_t i = 0; i < per_conn; ++i) {
        wire::QueryRequest req;
        req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        req.deadline_micros = deadline_us;
        wire::QueryResponse resp;
        Timer timer;
        if (!client->Query(req, &resp, &error)) {
          ++r.transport_errors;
          return;
        }
        r.latency.Record(timer.ElapsedNanos());
        Tally(resp.status, &r);
        const bool answered = resp.status == wire::Status::kOk ||
                              resp.status == wire::Status::kUnreachable;
        if (oracle != nullptr && answered && i % verify_every == 0) {
          ++r.verified;
          const Distance truth = oracle->Run(req.source, req.target);
          const Distance got = resp.status == wire::Status::kOk
                                   ? resp.distance
                                   : kInfDistance;
          if (got != truth) ++r.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  DriveResult total;
  for (DriveResult& r : results) {
    total.ok += r.ok;
    total.unreachable += r.unreachable;
    total.overloaded += r.overloaded;
    total.deadline_exceeded += r.deadline_exceeded;
    total.draining += r.draining;
    total.transport_errors += r.transport_errors;
    total.verified += r.verified;
    total.mismatches += r.mismatches;
    total.latency.Merge(r.latency);
  }
  return total;
}

// Pipelines `waves` bursts of `per_wave` QUERY2 frames on one raw
// connection, each burst in one write, pausing `gap` between bursts;
// then reads every reply. Replies are tallied by status.
DriveResult Pipeline(const Graph& g, uint16_t port, wire::QueryKind kind,
                     uint64_t deadline_us, int rcvbuf_bytes, size_t waves,
                     size_t per_wave, std::chrono::milliseconds gap,
                     uint64_t seed) {
  DriveResult r;
  std::string error;
  ScopedFd conn = ConnectTcp("127.0.0.1", port, &error, rcvbuf_bytes);
  if (!conn.valid()) {
    ++r.transport_errors;
    return r;
  }
  Rng rng(seed);
  uint64_t id = 0;
  std::vector<std::string> burst;
  for (size_t w = 0; w < waves; ++w) {
    burst.clear();
    for (size_t i = 0; i < per_wave; ++i) {
      wire::QueryRequest req;
      req.request_id = id++;
      req.kind = kind;
      req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      req.deadline_micros = deadline_us;
      burst.push_back(wire::EncodeQueryRequestV2(req));
    }
    if (!WriteFrames(conn.get(), burst)) {
      ++r.transport_errors;
      return r;
    }
    std::this_thread::sleep_for(gap);
  }
  for (uint64_t i = 0; i < id; ++i) {
    std::string body;
    if (!ReadFrame(conn.get(), &body, wire::kMaxFrameBytes)) {
      ++r.transport_errors;
      return r;
    }
    const auto resp = wire::DecodeQueryResponseV2(body);
    if (!resp.has_value()) {
      ++r.transport_errors;
      return r;
    }
    Tally(resp->status, &r);
  }
  return r;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t per_conn = fast ? 100 : 500;

  GeneratorConfig config;
  config.target_vertices = fast ? 1200 : 2500;
  config.seed = 42;
  const Graph g = GenerateRoadNetwork(config);
  const ChIndex ch(g);
  std::printf("graph: %u vertices, %zu edges; CH ready\n", g.NumVertices(),
              g.NumEdges());

  // --- 1. Correctness under concurrency (>= 4 connections) ---
  {
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
    std::string error;
    Check(server.Start(&error), "server start (correctness phase)");
    Timer wall;
    const DriveResult r =
        Drive(g, server.Port(), /*connections=*/6, per_conn,
              /*deadline_us=*/0, /*verify_every=*/1, /*seed=*/7);
    const double seconds = wall.ElapsedSeconds();
    const uint64_t completed = r.ok + r.unreachable;
    std::printf(
        "serving: %llu queries over 6 conns, %.0f qps,"
        " client p50 %.1f us p99 %.1f us\n",
        static_cast<unsigned long long>(completed),
        seconds > 0 ? completed / seconds : 0.0,
        r.latency.ValueAtQuantile(0.50) * 1e-3,
        r.latency.ValueAtQuantile(0.99) * 1e-3);
    std::printf("verified: %llu sampled distances, %llu mismatches\n",
                static_cast<unsigned long long>(r.verified),
                static_cast<unsigned long long>(r.mismatches));
    Check(completed == 6 * per_conn, "every query answered");
    Check(r.verified > 0, "oracle sample nonempty");
    Check(r.mismatches == 0, "all sampled distances match the oracle");
    Check(r.transport_errors == 0, "no transport errors");
    server.Shutdown();
  }

  // --- 2. Overload shedding at the write-queue hard cap ---
  {
    ServerOptions options;
    options.write_queue_soft_cap = 0;  // no read pause: force the hard cap
    options.write_queue_hard_cap = 8192;
    options.sndbuf_bytes = 4096;       // the kernel cannot hide the queue
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(),
                       options);
    std::string error;
    Check(server.Start(&error), "server start (overload phase)");
    // Path replies pile up unread on the connection between waves.
    const size_t waves = fast ? 40 : 60, per_wave = 10;
    const DriveResult r =
        Pipeline(g, server.Port(), wire::QueryKind::kPath,
                 /*deadline_us=*/0, /*rcvbuf_bytes=*/4096, waves, per_wave,
                 std::chrono::milliseconds(2), /*seed=*/11);
    std::printf("overload: 8 KiB hard cap, unread pipeline -> %llu"
                " OVERLOADED of %zu\n",
                static_cast<unsigned long long>(r.overloaded),
                waves * per_wave);
    Check(r.transport_errors == 0, "every pipelined request answered");
    Check(r.overloaded > 0,
          "write queue past the hard cap sheds with explicit OVERLOADED");
    Check(r.ok + r.unreachable > 0, "some queries still served under overload");
    server.Shutdown();
  }

  // --- 3. Deadline enforcement ---
  {
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
    std::string error;
    Check(server.Start(&error), "server start (deadline phase)");
    // Each burst arrives in one read; with a 1 us budget every frame
    // that waits behind an earlier one of its burst is shed.
    const size_t waves = fast ? 20 : 50, per_wave = 32;
    const DriveResult r =
        Pipeline(g, server.Port(), wire::QueryKind::kDistance,
                 /*deadline_us=*/1, /*rcvbuf_bytes=*/0, waves, per_wave,
                 std::chrono::milliseconds(0), /*seed=*/13);
    std::printf("deadline: 1 us budget, bursts of %zu -> %llu"
                " DEADLINE_EXCEEDED of %zu\n",
                per_wave, static_cast<unsigned long long>(r.deadline_exceeded),
                waves * per_wave);
    Check(r.transport_errors == 0, "every burst request answered");
    Check(r.deadline_exceeded > 0,
          "expired deadline sheds with DEADLINE_EXCEEDED");
    server.Shutdown();
  }

  // --- 4. Graceful drain answers in-flight requests ---
  {
    QueryServer server(ch, wire::TechniqueId("ch"), g.NumVertices(), {});
    std::string error;
    Check(server.Start(&error), "server start (drain phase)");
    const uint16_t port = server.Port();
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> dropped{0};
    std::vector<std::thread> drivers;
    for (size_t tid = 0; tid < 4; ++tid) {
      drivers.emplace_back([&, tid] {
        std::string err;
        auto client = BlockingClient::Connect("127.0.0.1", port, &err);
        if (client == nullptr) return;
        Rng rng(100 + tid);
        for (size_t i = 0; i < per_conn; ++i) {
          wire::QueryRequest req;
          req.source = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
          req.target = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
          wire::QueryResponse resp;
          if (!client->Query(req, &resp, &err)) {
            // A hangup between requests after the drain began is a clean
            // end of this connection, not a dropped request.
            if (err != "server closed the connection") {
              dropped.fetch_add(1);
            }
            return;
          }
          answered.fetch_add(1);
        }
      });
    }
    // Let traffic build, then pull the plug from an admin connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(fast ? 20 : 50));
    auto admin = BlockingClient::Connect("127.0.0.1", port, &error);
    Check(admin != nullptr, "admin connect");
    if (admin != nullptr) {
      Check(admin->SendShutdown(&error), "SHUTDOWN frame acknowledged");
    }
    for (std::thread& t : drivers) t.join();
    server.Shutdown();
    std::printf("drain: %llu answered before/through shutdown,"
                " %llu dropped mid-request\n",
                static_cast<unsigned long long>(answered.load()),
                static_cast<unsigned long long>(dropped.load()));
    Check(answered.load() > 0, "requests answered through shutdown");
    Check(dropped.load() == 0, "no request dropped without a response");
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_server: %d failures\n", g_failures);
    return 1;
  }
  std::printf("bench_server: all serving properties hold\n");
  return 0;
}
