// Closed-loop load generator for the roadnet query service.
//
//   roadnet_loadgen --port P --graph graph.bin
//                   [--host 127.0.0.1] [--connections N] [--queries N]
//                   [--workload random|Q1..Q10|knn] [--seed S] [--paths]
//                   [--poi pois.bin (required for knn)]
//                   [--deadline-us D] [--verify-every K] [--pipeline N]
//                   [--technique any|bidi|ch|alt|hl] [--stats] [--shutdown]
//                   [--trace-sample N] [--slow-us T]
//
// Opens N concurrent connections and drives them closed-loop, replaying
// either random pairs or one of the paper's Q1..Q10 L-infinity workloads
// (Section 4.2). Each connection keeps --pipeline QUERY2 requests in
// flight (default 1: send, wait for the reply, send the next) and
// matches every reply to its request by the echoed request_id. Every
// K-th response is kept and checked against a local Dijkstra oracle after
// the timed run, so the oracle adds nothing to the timings — distances
// must match exactly, and path responses must be real paths of the right
// weight. The kept replies (with their paths under --paths) stay in
// memory until the run ends: --queries / K of them. Reports achieved qps
// and client-observed p50/p99 (from a request's send to its reply, so
// with --pipeline N they include the wait behind the requests ahead of
// it), which include the server's queueing — the end-to-end numbers a
// capacity plan is written against.
// Open-loop latency under a fixed arrival rate is perfbench's job (its
// open_lo/open_hi classes), not this tool's.
//
// --workload knn drives the kNN / one-to-many endpoints instead: it
// cycles R-set-style buckets — every POI category (the density sweep)
// x k in {1, 4, 10, 50} x method in {bucket-ch, ier} plus one
// one-to-many bucket per category — from random sources, and verifies
// every K-th reply (result set AND distances, vertex-id tie-breaks
// included) against the expanding-Dijkstra kNN oracle. kNN frames
// carry no request id, so this workload runs at --pipeline 1 only.
//
// --trace-sample / --slow-us retune the server's request tracer over
// the wire (TRACE_CONFIG frame) before the workload starts, and the
// post-run --stats report then includes the server's per-stage latency
// breakdown (accept -> reply_write) and live gauges — the decomposition
// the client-side percentiles cannot see.
//
// Exit status: 0 on success, 1 on any oracle mismatch or transport
// error, 2 on usage errors.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dijkstra/dijkstra.h"
#include "graph/graph.h"
#include "io/serialize.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "routing/path.h"
#include "server/client.h"
#include "server/wire.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/query_gen.h"

namespace {

using namespace roadnet;

// Upper bound on --pipeline. A connection thread sends with blocking
// writes and reads only once its window is full, so a whole window of
// request frames (31 bytes each, 31 KiB at this bound) must fit in the
// socket buffers even while the server has paused reading the
// connection behind unread replies.
constexpr size_t kMaxPipeline = 1024;

int Usage() {
  std::fprintf(
      stderr,
      "usage: roadnet_loadgen --port P --graph graph.bin\n"
      "  [--host 127.0.0.1] [--connections N] [--queries N]\n"
      "  [--workload random|Q1..Q10|knn] [--seed S] [--paths]\n"
      "  [--poi pois.bin (required for --workload knn)]\n"
      "  [--deadline-us D] [--verify-every K (0=off; keeps queries/K"
      " replies)]\n"
      "  [--pipeline N (requests in flight per connection, 1..%zu;"
      " default 1)]\n"
      "  [--technique any|bidi|ch|alt|hl] [--stats] [--shutdown]\n"
      "  [--trace-sample N (head-sample 1-in-N)] [--slow-us T (0=all)]\n",
      kMaxPipeline);
  return 2;
}

// One connection thread's tallies, merged after the join.
struct WorkerResult {
  Histogram latency;  // client-observed, nanoseconds
  uint64_t ok = 0;
  uint64_t unreachable = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t draining = 0;
  uint64_t bad_request = 0;
  uint64_t transport_errors = 0;
  uint64_t verified = 0;
  uint64_t mismatches = 0;
  std::string first_problem;
  // Every K-th reply by query index, checked after the wall timer stops.
  std::vector<std::pair<size_t, wire::QueryResponse>> point_samples;
  std::vector<std::pair<size_t, wire::KnnResponse>> knn_samples;

  // Counts one wrong reply; the first is kept as the problem to print.
  void Mismatch(const std::string& problem) {
    ++mismatches;
    if (first_problem.empty()) first_problem = problem;
  }

  void CountStatus(wire::Status s) {
    switch (s) {
      case wire::Status::kOk: ++ok; break;
      case wire::Status::kUnreachable: ++unreachable; break;
      case wire::Status::kOverloaded: ++overloaded; break;
      case wire::Status::kDeadlineExceeded: ++deadline_exceeded; break;
      case wire::Status::kShuttingDown: ++draining; break;
      case wire::Status::kBadRequest: ++bad_request; break;
    }
  }
};

// One request of the knn workload: a (bucket, source) pair. otm marks
// the one-to-many buckets (k and method unused there).
struct KnnWork {
  bool otm = false;
  wire::KnnMethod method = wire::KnnMethod::kBucketCh;
  uint32_t category = 0;
  uint32_t k = 0;
  VertexId source = 0;
};

// The post-run admin step: --stats prints the server's STATS snapshot,
// --shutdown then sends the SHUTDOWN frame. False (after printing why)
// on any admin failure.
bool ReportServer(const std::string& host, uint16_t port, bool stats,
                  bool shutdown) {
  std::string error;
  auto admin = BlockingClient::Connect(host, port, &error);
  if (admin == nullptr) {
    std::fprintf(stderr, "admin connect: %s\n", error.c_str());
    return false;
  }
  if (stats) {
    wire::StatsResponse s;
    if (!admin->GetStats(&s, &error)) {
      std::fprintf(stderr, "stats: %s\n", error.c_str());
      return false;
    }
    std::printf("server:      served %llu, shed %llu/%llu/%llu, bad %llu,"
                " conns %llu accepted %llu rejected\n",
                static_cast<unsigned long long>(s.served),
                static_cast<unsigned long long>(s.shed_overloaded),
                static_cast<unsigned long long>(s.shed_deadline),
                static_cast<unsigned long long>(s.shed_draining),
                static_cast<unsigned long long>(s.bad_requests),
                static_cast<unsigned long long>(s.connections_accepted),
                static_cast<unsigned long long>(s.connections_rejected));
    std::printf("server lat:  distance p50 %.1f us p99 %.1f us,"
                " path p50 %.1f us p99 %.1f us\n",
                s.distance_p50_ns * 1e-3, s.distance_p99_ns * 1e-3,
                s.path_p50_ns * 1e-3, s.path_p99_ns * 1e-3);
    std::printf("server live: open connections %llu, write queues %llu"
                " bytes, reaped %llu idle\n",
                static_cast<unsigned long long>(s.open_connections),
                static_cast<unsigned long long>(s.write_queue_bytes),
                static_cast<unsigned long long>(s.idle_reaped));
    if (s.traces_finished > 0) {
      std::printf("traces:      %llu finished, %llu captured"
                  " (%llu slow), %llu dropped\n",
                  static_cast<unsigned long long>(s.traces_finished),
                  static_cast<unsigned long long>(s.traces_captured),
                  static_cast<unsigned long long>(s.traces_slow),
                  static_cast<unsigned long long>(s.traces_dropped));
    }
    if (!s.stages.empty()) {
      std::printf("stage breakdown (server-side, all finished requests):\n");
      std::printf("  %-15s %10s %12s %12s\n", "stage", "count", "p50_us",
                  "p99_us");
      for (const wire::StageStatWire& st : s.stages) {
        std::printf("  %-15s %10llu %12.1f %12.1f\n",
                    TraceStageName(static_cast<TraceStage>(st.stage)),
                    static_cast<unsigned long long>(st.count),
                    st.p50_ns * 1e-3, st.p99_ns * 1e-3);
      }
    }
  }
  if (shutdown) {
    if (!admin->SendShutdown(&error)) {
      std::fprintf(stderr, "shutdown: %s\n", error.c_str());
      return false;
    }
    std::printf("shutdown:    acknowledged, server draining\n");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagSpec spec{{"host", "port", "graph", "connections", "queries",
                       "workload", "seed", "poi", "deadline-us",
                       "verify-every", "technique", "trace-sample",
                       "slow-us", "pipeline"},
                      {"paths", "stats", "shutdown"}};
  std::string error;
  const auto flags = ParseFlags(argc, argv, 1, spec, &error);
  uint16_t port = 0;
  size_t connections = 4, total_queries = 1000, pipeline = 1;
  uint64_t seed = 1, deadline_us = 0, verify_every = 10;
  uint64_t trace_sample = 0, slow_us = kTraceSlowDisabled;
  if (!flags.has_value() || !NumericFlag(*flags, "port", &port, &error) ||
      !NumericFlag(*flags, "connections", &connections, &error) ||
      !NumericFlag(*flags, "queries", &total_queries, &error) ||
      !NumericFlag(*flags, "pipeline", &pipeline, &error) ||
      !NumericFlag(*flags, "seed", &seed, &error) ||
      !NumericFlag(*flags, "deadline-us", &deadline_us, &error) ||
      !NumericFlag(*flags, "verify-every", &verify_every, &error) ||
      !NumericFlag(*flags, "trace-sample", &trace_sample, &error) ||
      !NumericFlag(*flags, "slow-us", &slow_us, &error)) {
    std::fprintf(stderr, "roadnet_loadgen: %s\n", error.c_str());
    return Usage();
  }
  if (flags->count("port") == 0 || flags->count("graph") == 0) {
    return Usage();
  }
  const std::string host =
      flags->count("host") > 0 ? flags->at("host") : "127.0.0.1";
  const std::string workload =
      flags->count("workload") > 0 ? flags->at("workload") : "random";
  const std::string technique =
      flags->count("technique") > 0 ? flags->at("technique") : "any";
  const bool use_paths = flags->count("paths") > 0;
  const bool want_stats = flags->count("stats") > 0;
  const bool want_shutdown = flags->count("shutdown") > 0;
  if (connections == 0 || total_queries == 0 || pipeline == 0 ||
      pipeline > kMaxPipeline) {
    return Usage();
  }
  if (technique != "any" && wire::TechniqueId(technique) == 0) {
    std::fprintf(stderr, "unknown --technique %s\n", technique.c_str());
    return Usage();
  }
  const bool knn_mode = workload == "knn";
  if (knn_mode && pipeline > 1) {
    std::fprintf(stderr,
                 "--workload knn runs at --pipeline 1: kNN frames carry no"
                 " request id to match a pipelined reply by\n");
    return Usage();
  }

  auto g = ReadGraphFile(flags->at("graph"), &error);
  if (!g.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // The replayed query stream: random pairs, one of the paper's
  // L-infinity buckets, or the knn bucket sweep. A short bucket is
  // cycled to fill the run.
  std::vector<std::pair<VertexId, VertexId>> queries;
  std::vector<KnnWork> knn_work;
  std::unique_ptr<PoiSet> pois;
  // Per-category vertex lists for the verification oracle.
  std::vector<std::vector<VertexId>> category_vertices;
  if (knn_mode) {
    auto it = flags->find("poi");
    if (it == flags->end()) {
      std::fprintf(stderr, "--workload knn requires --poi\n");
      return Usage();
    }
    pois = PoiSet::DeserializeFromFile(it->second, &error);
    if (pois == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (pois->NumVertices() != g->NumVertices()) {
      std::fprintf(stderr, "--poi was placed on a different graph\n");
      return 1;
    }
    category_vertices.reserve(pois->NumCategories());
    for (uint32_t c = 0; c < pois->NumCategories(); ++c) {
      const auto span = pois->Vertices(c);
      category_vertices.emplace_back(span.begin(), span.end());
    }
    // R-set-style sweep: every category (density) x k x method, plus a
    // one-to-many bucket per category.
    std::vector<KnnWork> buckets;
    const uint32_t ks[] = {1, 4, 10, 50};
    for (uint32_t c = 0; c < pois->NumCategories(); ++c) {
      for (uint32_t k : ks) {
        for (auto m : {wire::KnnMethod::kBucketCh, wire::KnnMethod::kIer}) {
          buckets.push_back({false, m, c, k, 0});
        }
      }
      buckets.push_back({true, wire::KnnMethod::kBucketCh, c, 0, 0});
    }
    Rng rng(seed);
    knn_work.reserve(total_queries);
    for (size_t i = 0; i < total_queries; ++i) {
      KnnWork w = buckets[i % buckets.size()];
      w.source = static_cast<VertexId>(rng.NextBelow(g->NumVertices()));
      knn_work.push_back(w);
    }
  } else if (workload == "random") {
    Rng rng(seed);
    queries.reserve(total_queries);
    for (size_t i = 0; i < total_queries; ++i) {
      queries.emplace_back(
          static_cast<VertexId>(rng.NextBelow(g->NumVertices())),
          static_cast<VertexId>(rng.NextBelow(g->NumVertices())));
    }
  } else {
    const auto sets = GenerateLInfQuerySets(*g, total_queries, seed);
    const QuerySet* found = nullptr;
    for (const QuerySet& s : sets) {
      if (s.name == workload) found = &s;
    }
    if (found == nullptr || found->pairs.empty()) {
      std::fprintf(stderr,
                   "workload %s is unknown or empty on this graph"
                   " (expected random or Q1..Q10)\n",
                   workload.c_str());
      return 1;
    }
    queries.reserve(total_queries);
    for (size_t i = 0; i < total_queries; ++i) {
      queries.push_back(found->pairs[i % found->pairs.size()]);
    }
  }

  // Retune the server's tracer before any load arrives, so the whole
  // run is recorded under the requested sampling policy.
  if (flags->count("trace-sample") > 0 || flags->count("slow-us") > 0) {
    auto admin = BlockingClient::Connect(host, port, &error);
    if (admin == nullptr) {
      std::fprintf(stderr, "trace config connect: %s\n", error.c_str());
      return 1;
    }
    wire::TraceConfigRequest cfg;
    if (flags->count("trace-sample") > 0) cfg.sample_every = trace_sample;
    if (flags->count("slow-us") > 0) cfg.slow_micros = slow_us;
    wire::TraceConfigResponse effective;
    if (!admin->ConfigureTracing(cfg, &effective, &error)) {
      std::fprintf(stderr, "trace config: %s\n", error.c_str());
      return 1;
    }
    std::string sampling =
        effective.sample_every == 0
            ? "head sampling off"
            : "sample 1-in-" + std::to_string(effective.sample_every);
    std::string slow =
        effective.slow_micros == kTraceSlowDisabled
            ? "slow capture off"
            : "slow threshold " + std::to_string(effective.slow_micros) +
                  " us";
    std::printf("tracing:     %s, %s\n", sampling.c_str(), slow.c_str());
  }

  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  Timer wall;
  for (size_t tid = 0; tid < connections; ++tid) {
    threads.emplace_back([&, tid] {
      WorkerResult& r = results[tid];
      std::string err;
      auto client = BlockingClient::Connect(host, port, &err);
      if (client == nullptr) {
        ++r.transport_errors;
        r.first_problem = "connect: " + err;
        return;
      }
      if (knn_mode) {
        for (size_t i = tid; i < knn_work.size(); i += connections) {
          const KnnWork& w = knn_work[i];
          wire::KnnResponse resp;
          Timer timer;
          bool sent;
          if (w.otm) {
            wire::OneToManyRequest req;
            req.category = w.category;
            req.source = w.source;
            req.deadline_micros = deadline_us;
            sent = client->OneToMany(req, &resp, &err);
          } else {
            wire::KnnRequest req;
            req.method = w.method;
            req.category = w.category;
            req.k = w.k;
            req.source = w.source;
            req.deadline_micros = deadline_us;
            sent = client->Knn(req, &resp, &err);
          }
          if (!sent) {
            ++r.transport_errors;
            if (r.first_problem.empty()) r.first_problem = "knn: " + err;
            return;
          }
          r.latency.Record(timer.ElapsedNanos());
          r.CountStatus(resp.status);
          if (resp.status == wire::Status::kOk && verify_every > 0 &&
              i % verify_every == 0) {
            r.knn_samples.emplace_back(i, std::move(resp));
          }
        }
        return;
      }

      // Up to `pipeline` requests in flight, each tagged with its query
      // index as request_id and timed from its send; a reply is matched
      // back to its request by that id, in whatever order it arrives.
      std::map<uint64_t, Timer> in_flight;
      size_t next = tid;
      while (next < queries.size() || !in_flight.empty()) {
        if (next < queries.size() && in_flight.size() < pipeline) {
          wire::QueryRequest req;
          req.request_id = next;
          req.technique = wire::TechniqueId(technique);
          req.kind = use_paths ? wire::QueryKind::kPath
                               : wire::QueryKind::kDistance;
          req.source = queries[next].first;
          req.target = queries[next].second;
          req.deadline_micros = deadline_us;
          in_flight.emplace(next, Timer());
          if (!client->Send(req, &err)) {
            ++r.transport_errors;
            if (r.first_problem.empty()) r.first_problem = "query: " + err;
            return;
          }
          next += connections;
          continue;
        }
        wire::QueryResponse resp;
        if (!client->Recv(&resp, &err)) {
          ++r.transport_errors;
          if (r.first_problem.empty()) r.first_problem = "query: " + err;
          return;  // connection is gone (e.g. server drained)
        }
        const auto sent = in_flight.find(resp.request_id);
        if (sent == in_flight.end()) {
          ++r.transport_errors;
          if (r.first_problem.empty()) {
            r.first_problem = "reply to request_id " +
                              std::to_string(resp.request_id) +
                              ", which is not in flight";
          }
          return;
        }
        r.latency.Record(sent->second.ElapsedNanos());
        in_flight.erase(sent);
        r.CountStatus(resp.status);

        const size_t i = resp.request_id;
        const bool answered = resp.status == wire::Status::kOk ||
                              resp.status == wire::Status::kUnreachable;
        if (verify_every > 0 && answered && i % verify_every == 0) {
          r.point_samples.emplace_back(i, std::move(resp));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  // The oracle check of the kept replies, now that nothing is timed. Up
  // to one thread per core, each checking one connection's at a time.
  std::atomic<size_t> next_result{0};
  auto verify = [&] {
    Dijkstra oracle(*g);
    for (size_t k = next_result++; k < results.size(); k = next_result++) {
      WorkerResult& r = results[k];
      for (const auto& [i, resp] : r.knn_samples) {
        // Exact result-set check: same POIs, same distances, same
        // (distance, vertex id) order as the expanding-Dijkstra oracle.
        // One-to-many must equal kNN with k = |category|.
        const KnnWork& w = knn_work[i];
        const auto& cat = category_vertices[w.category];
        const size_t want_k = w.otm ? cat.size() : w.k;
        const auto truth = KnnByDijkstra(*g, cat, w.source, want_k);
        bool bad = truth.size() != resp.entries.size();
        for (size_t j = 0; !bad && j < truth.size(); ++j) {
          bad = truth[j].poi != resp.entries[j].first ||
                truth[j].dist != resp.entries[j].second;
        }
        if (bad) {
          r.Mismatch("knn oracle mismatch: category " +
                     std::to_string(w.category) + ", k " +
                     std::to_string(want_k) + ", source " +
                     std::to_string(w.source) + " (" +
                     std::to_string(resp.entries.size()) + " entries, oracle " +
                     std::to_string(truth.size()) + ")");
        }
      }
      for (const auto& [i, resp] : r.point_samples) {
        const auto [source, target] = queries[i];
        const Distance truth = oracle.Run(source, target);
        const Distance got =
            resp.status == wire::Status::kOk ? resp.distance : kInfDistance;
        bool bad = got != truth;
        if (!bad && use_paths && resp.status == wire::Status::kOk) {
          const Path& p = resp.path;
          bad = p.empty() || p.front() != source || p.back() != target ||
                !IsValidPath(*g, p) || PathWeight(*g, p) != truth;
        }
        if (bad) {
          r.Mismatch("oracle mismatch for " + std::to_string(source) + " -> " +
                     std::to_string(target) + ": server " +
                     std::to_string(got) + ", oracle " + std::to_string(truth));
        }
      }
      r.verified = r.knn_samples.size() + r.point_samples.size();
    }
  };
  const size_t verifiers = std::min<size_t>(
      results.size(), std::max(1u, std::thread::hardware_concurrency()));
  threads.clear();
  for (size_t v = 0; v < verifiers; ++v) threads.emplace_back(verify);
  for (std::thread& t : threads) t.join();

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.latency.Merge(r.latency);
    total.ok += r.ok;
    total.unreachable += r.unreachable;
    total.overloaded += r.overloaded;
    total.deadline_exceeded += r.deadline_exceeded;
    total.draining += r.draining;
    total.bad_request += r.bad_request;
    total.transport_errors += r.transport_errors;
    total.verified += r.verified;
    total.mismatches += r.mismatches;
    if (total.first_problem.empty()) total.first_problem = r.first_problem;
  }
  const uint64_t completed = total.latency.Count();

  std::printf("workload:    %s, %zu queries over %zu connections,"
              " pipeline %zu, kind %s\n",
              workload.c_str(),
              knn_mode ? knn_work.size() : queries.size(), connections,
              pipeline,
              knn_mode ? "knn+one_to_many"
                       : (use_paths ? "path" : "distance"));
  std::printf("completed:   %llu (%llu ok, %llu unreachable)\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.unreachable));
  std::printf("shed:        %llu overloaded, %llu deadline, %llu draining,"
              " %llu bad, %llu transport errors\n",
              static_cast<unsigned long long>(total.overloaded),
              static_cast<unsigned long long>(total.deadline_exceeded),
              static_cast<unsigned long long>(total.draining),
              static_cast<unsigned long long>(total.bad_request),
              static_cast<unsigned long long>(total.transport_errors));
  std::printf("verified:    %llu against the Dijkstra oracle,"
              " %llu mismatches\n",
              static_cast<unsigned long long>(total.verified),
              static_cast<unsigned long long>(total.mismatches));
  std::printf("throughput:  %.0f queries/s (wall %.3f s)\n",
              wall_seconds > 0 ? completed / wall_seconds : 0.0,
              wall_seconds);
  std::printf("latency:     client p50 %.1f us, p99 %.1f us, max %.1f us\n",
              total.latency.ValueAtQuantile(0.50) * 1e-3,
              total.latency.ValueAtQuantile(0.99) * 1e-3,
              total.latency.Max() * 1e-3);
  if (!total.first_problem.empty()) {
    std::fprintf(stderr, "problem:     %s\n", total.first_problem.c_str());
  }

  if ((want_stats || want_shutdown) &&
      !ReportServer(host, port, want_stats, want_shutdown)) {
    return 1;
  }

  return (total.mismatches > 0 || total.transport_errors > 0) ? 1 : 0;
}
