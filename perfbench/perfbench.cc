// The repository benchmark: three workloads that time the serving stack
// and the offline batch path from outside, check every answer, and print
// one JSON line of metrics (see README.md beside this file).
//
//   perfbench --workload served_hl_point|served_mixed|batch_ch_paths
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// ladder instead (direct index calls, QueryEngine, server, wire, load
// generator, tracer) and prints the per-layer metrics. Human-readable
// tables go to stdout before the JSON line, progress to stderr.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "hl/hl_index.h"
#include "knn/knn_index.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "routing/path.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/wire.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace {

using namespace roadnet;
using perfbench::ClassResult;
using perfbench::ClassSpec;
using perfbench::NowNs;
using perfbench::PoolEntry;
using perfbench::ReplyCheck;

// ---------------------------------------------------------------------------
// Frozen workload parameters. The open-loop rates are absolute, not
// fractions of a measured capacity, so a faster server is measured at the
// same offered load.

constexpr double kOpenLoRate = 5000;    // req/s
constexpr double kOpenHiRate = 25000;   // req/s
constexpr size_t kOpenConns = 4;
// Open-loop backlog limit, half the server's default admission queue of
// 256: a host stall at the high rate queues in the generator and shows
// as latency, instead of filling the queue and being shed as OVERLOADED.
constexpr size_t kOpenMaxOutstanding = 128;
constexpr size_t kSatConns = 4;
constexpr size_t kSatDepth = 16;
constexpr int kSetupReps = 3;
constexpr int kRounds = 8;
constexpr uint32_t kKnnK = 10;
constexpr double kPoiDensity = 0.005;   // ~95 POIs on CA'
constexpr size_t kPointPool = 8192;
constexpr size_t kHeavyPerKind = 128;
constexpr size_t kBatchPerSet = 1000;   // Q1..Q10, equal parts
constexpr size_t kBatchOracleSample = 200;
constexpr size_t kLadderPerSet = 200;
constexpr uint64_t kDrainNs = 2'000'000'000;
constexpr uint64_t kWarmupNs = 300'000'000;

const char* const kServedDataset = "CA'";
const char* const kBatchDataset = "W-US'";

// The gated metrics (BENCHMARK.json "end_to_end"), reported on every
// workload; README.md maps each to the workload's request class. The
// *_rel ones are per-round ratios to a host reference measured in the
// same round (EchoFloorUs, HostProbe): on a shared host whose speed
// drifts by a quarter within minutes, the ratio repeats where the
// absolute figure, printed beside it, does not.
const char* const kEndToEnd[] = {
    "setup_s", "peak_rss_mib", "lat_p50_rel", "cpu_per_req_rel",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

uint64_t SecondsToNs(double s) { return static_cast<uint64_t>(s * 1e9); }

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Mib(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

// CPU time the process spends from construction on, optionally less the
// calling thread's own: around a served phase, that is the server's CPU
// time without the load generator's. A shared host that takes the CPUs
// away delays work more than it adds CPU time (in a VM, time taken from
// a running thread still counts), so this moves less than wall time.
class CpuTimer {
 public:
  explicit CpuTimer(bool less_caller)
      : less_caller_(less_caller),
        process_(CpuNs(CLOCK_PROCESS_CPUTIME_ID)),
        caller_(CpuNs(CLOCK_THREAD_CPUTIME_ID)) {}

  double Us() const {
    double ns = static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_);
    if (less_caller_) {
      ns -= static_cast<double>(CpuNs(CLOCK_THREAD_CPUTIME_ID) - caller_);
    }
    return ns * 1e-3;
  }

 private:
  bool less_caller_;
  uint64_t process_;
  uint64_t caller_;
};

// The batch rounds' host reference: a fixed amount of work that shares
// no code with the program under test. Each of `threads` threads walks
// its own random cycle over 4 MiB (dependent loads, as a shortest-path
// search makes). Its time per step tracks how fast the shared host lets
// this process run at the moment.
class HostProbe {
 public:
  HostProbe(size_t threads, uint64_t seed) : cycles_(threads) {
    Rng rng(seed);
    for (std::vector<uint32_t>& next : cycles_) {
      next.resize(kSlots);
      for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
      // Sattolo's shuffle: a single cycle through every slot.
      for (size_t i = kSlots - 1; i > 0; --i) {
        std::swap(next[i], next[rng.NextBelow(i)]);
      }
    }
  }

  // Wall time per step in ns, every thread walking at once.
  double StepNs() {
    std::vector<uint32_t> ends(cycles_.size());
    std::vector<std::thread> walkers;
    const uint64_t t0 = NowNs();
    for (size_t t = 0; t < cycles_.size(); ++t) {
      walkers.emplace_back([this, t, &ends] {
        uint32_t at = 0;
        for (size_t i = 0; i < kSteps; ++i) at = cycles_[t][at];
        ends[t] = at;
      });
    }
    for (std::thread& w : walkers) w.join();
    const double ns = static_cast<double>(NowNs() - t0) / kSteps;
    for (uint32_t e : ends) sink_ ^= e;
    return ns;
  }

  uint32_t sink() const { return sink_; }

 private:
  static constexpr uint32_t kSlots = 1u << 20;
  static constexpr size_t kSteps = size_t{1} << 20;
  std::vector<std::vector<uint32_t>> cycles_;
  uint32_t sink_ = 0;
};

double PerRequest(double us, uint64_t requests) {
  return us / static_cast<double>(std::max<uint64_t>(requests, 1));
}

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit, percentiles with their
// sample counts; the JSON line carries the requested subset.

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           size_t samples = 0, size_t beyond = 0) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = Row{value, unit, samples, beyond};
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name).value; }

  void PrintTable(const std::string& title) const {
    std::printf("# %s\n%-34s %14s %-6s %9s %9s\n", title.c_str(), "metric",
                "value", "unit", "samples", "beyond");
    for (const std::string& name : order_) {
      const Row& r = values_.at(name);
      if (r.samples > 0) {
        std::printf("%-34s %14.4f %-6s %9zu %9zu\n", name.c_str(), r.value,
                    r.unit, r.samples, r.beyond);
      } else {
        std::printf("%-34s %14.4f %-6s\n", name.c_str(), r.value, r.unit);
      }
    }
  }

  // The result line: exactly `names`, in order. A name without a value
  // is a bug in the benchmark; it is reported and fails the run.
  bool PrintJson(const std::vector<std::string>& names, bool correct,
                 uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : names) {
      if (!Has(name)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     name.c_str());
        return false;
      }
      const Row& r = values_.at(name);
      double v = r.value;
      if (!std::isfinite(v)) v = 1e18;  // a percentile that hit a failure
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             r.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return true;
  }

 private:
  struct Row {
    double value = 0;
    const char* unit = "";
    size_t samples = 0;
    size_t beyond = 0;
  };
  std::map<std::string, Row> values_;
  std::vector<std::string> order_;
};

// Request totals across every phase of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t transport = 0;
  uint64_t status = 0;
  uint64_t unanswered = 0;

  void Add(const ClassResult& r) {
    attempted += r.attempted;
    failed += r.Failed();
    wrong += r.wrong;
    transport += r.transport_errors;
    status += r.bad_status;
    unanswered += r.unanswered;
  }

  void AddTo(Report* report) const {
    report->Add("failed_frac", perfbench::FailedFrac(attempted, failed),
                "ratio", attempted);
    report->Add("failed.transport", static_cast<double>(transport), "count");
    report->Add("failed.status", static_cast<double>(status), "count");
    report->Add("failed.unanswered", static_cast<double>(unanswered),
                "count");
    report->Add("failed.wrong", static_cast<double>(wrong), "count");
  }
};

// ---------------------------------------------------------------------------
// Fixture: the program under test, built from the generated inputs.

struct Needs {
  const char* dataset = kServedDataset;
  bool hl = false;      // build hub labels (served index on CA')
  bool knn = false;     // POI set + bucket-CH kNN index
  bool server = false;  // in-process QueryServer over the served index
};

struct Fixture {
  std::unique_ptr<Graph> g;
  std::unique_ptr<ChIndex> ch_owned;  // when HL does not own the CH
  std::unique_ptr<HlIndex> hl;
  std::unique_ptr<PoiSet> pois;
  std::unique_ptr<KnnBucketIndex> bucket;
  std::unique_ptr<QueryServer> server;  // destroyed first

  const ChIndex* ch = nullptr;
  const PathIndex* served = nullptr;  // what the server hosts
  uint8_t technique = wire::kAnyTechnique;

  double graph_s = 0, contract_s = 0, hl_s = 0, bucket_s = 0, server_s = 0;
  double Total() const {
    return graph_s + contract_s + hl_s + bucket_s + server_s;
  }
};

double SecondsSince(uint64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

const DatasetSpec& FindDataset(const std::string& name) {
  for (const DatasetSpec& d : PaperDatasets()) {
    if (d.name == name) return d;
  }
  std::fprintf(stderr, "perfbench: no dataset %s\n", name.c_str());
  std::exit(2);
}

// Builds the fixture. The served index is HL over the CH on the served
// dataset, and the CH itself on the batch dataset (where HL, when asked
// for, is only a per-layer subject).
std::unique_ptr<Fixture> BuildFixture(const Needs& needs, uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  const bool served_is_hl = std::strcmp(needs.dataset, kServedDataset) == 0;
  uint64_t t0 = NowNs();
  f->g = std::make_unique<Graph>(BuildDataset(FindDataset(needs.dataset)));
  f->graph_s = SecondsSince(t0);

  t0 = NowNs();
  auto ch = std::make_unique<ChIndex>(*f->g);
  f->contract_s = SecondsSince(t0);

  if (needs.hl) {
    t0 = NowNs();
    if (served_is_hl) {
      f->hl = HlIndex::BuildOwning(*f->g, std::move(ch));
    } else {
      f->ch_owned = std::move(ch);
      f->hl = std::make_unique<HlIndex>(*f->g, *f->ch_owned);
    }
    f->hl_s = SecondsSince(t0);
  } else {
    f->ch_owned = std::move(ch);
  }
  f->ch = f->ch_owned != nullptr ? f->ch_owned.get() : &f->hl->Hierarchy();
  if (served_is_hl) {
    f->served = f->hl.get();
    f->technique = wire::TechniqueId("hl");
  } else {
    f->served = f->ch;
    f->technique = wire::TechniqueId("ch");
  }

  if (needs.knn) {
    t0 = NowNs();
    PoiConfig pc;
    pc.categories = {PoiCategorySpec{"poi", kPoiDensity}};
    pc.seed = seed * 7919 + 17;
    f->pois = std::make_unique<PoiSet>(PoiSet::Generate(*f->g, pc));
    f->bucket = std::make_unique<KnnBucketIndex>(*f->ch, *f->pois);
    f->bucket_s = SecondsSince(t0);
  }

  if (needs.server) {
    t0 = NowNs();
    ServerOptions options;  // defaults apart from the port
    options.port = 0;
    KnnServing knn;
    if (f->bucket != nullptr) {
      knn.pois = f->pois.get();
      knn.bucket = f->bucket.get();
    }
    f->server = std::make_unique<QueryServer>(
        *f->served, f->technique, f->g->NumVertices(), options, knn);
    std::string error;
    if (!f->server->Start(&error)) {
      std::fprintf(stderr, "perfbench: server start: %s\n", error.c_str());
      std::exit(2);
    }
    f->server_s = SecondsSince(t0);
  }
  return f;
}

// Sets up `reps` times (the last fixture is kept) and reports the median
// set-up time, so one slow build does not move setup_s.
std::unique_ptr<Fixture> SetupRepeated(const Needs& needs, uint64_t seed,
                                       int reps, Report* report) {
  std::vector<double> totals;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < reps; ++i) {
    f.reset();
    f = BuildFixture(needs, seed);
    totals.push_back(f->Total());
    std::fprintf(stderr, "perfbench: setup %d: %.3f s\n", i + 1, f->Total());
  }
  report->Add("setup_s", perfbench::MedianOf(totals), "s", totals.size());
  return f;
}

// ---------------------------------------------------------------------------
// Request pools with expected answers, computed before timing by a
// different technique than the one that answers them.

std::vector<std::pair<VertexId, VertexId>> RandomPairs(const Graph& g,
                                                       size_t n,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> out(n);
  for (auto& p : out) {
    p.first = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    p.second = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
  }
  return out;
}

struct PointPool {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::vector<Distance> expect;
  std::vector<PoolEntry> entries;
};

// QUERY2 distance requests whose expected answers come from `oracle`.
PointPool MakePointPool(const PathIndex& oracle, uint8_t technique,
                        std::vector<std::pair<VertexId, VertexId>> pairs) {
  PointPool pool;
  pool.pairs = std::move(pairs);
  auto ctx = oracle.NewContext();
  for (size_t i = 0; i < pool.pairs.size(); ++i) {
    const auto [s, t] = pool.pairs[i];
    pool.expect.push_back(oracle.DistanceQuery(ctx.get(), s, t));
    wire::QueryRequest req;
    req.technique = technique;
    req.kind = wire::QueryKind::kDistance;
    req.source = s;
    req.target = t;
    pool.entries.push_back(perfbench::MakeEntry(
        wire::EncodeQueryRequestV2(req), true, static_cast<uint32_t>(i)));
  }
  return pool;
}

perfbench::Checker DistanceChecker(const std::vector<Distance>* expect) {
  return [expect](uint32_t idx, const std::string& body) {
    ReplyCheck c;
    const auto resp = wire::DecodeQueryResponseV2(body);
    if (!resp.has_value()) return c;
    c.server_ns = resp->server_latency_ns;
    if (resp->status == wire::Status::kOk) {
      c.ok_status = true;
      c.correct = resp->distance == (*expect)[idx];
    } else if (resp->status == wire::Status::kUnreachable) {
      c.ok_status = true;
      c.correct = (*expect)[idx] == kInfDistance;
    }
    return c;
  };
}

perfbench::Checker EchoChecker() {
  return [](uint32_t, const std::string& body) {
    ReplyCheck c;
    c.ok_status = c.correct = !body.empty() && body[0] == wire::kQueryV2;
    return c;
  };
}

// The heavy class: one-to-many, kNN (k = 10) and QUERY2 path requests.
struct HeavyPool {
  enum class Kind : uint8_t { kOneToMany, kKnn, kPath };
  struct Expect {
    Kind kind = Kind::kPath;
    VertexId s = 0, t = 0;
    Distance dist = 0;  // path
    std::vector<std::pair<VertexId, Distance>> entries;  // kNN, OTM
  };
  std::vector<Expect> expect;
  std::vector<PoolEntry> entries;
};

std::vector<std::pair<VertexId, Distance>> OracleKnn(
    const Graph& g, const std::vector<VertexId>& pois, VertexId s,
    size_t k) {
  // Settle a few extra so (distance, id) ties at the k-th place resolve
  // the same way as the index does.
  std::vector<KnnResult> r = KnnByDijkstra(g, pois, s, k + 8);
  if (r.size() > k) r.resize(k);
  std::vector<std::pair<VertexId, Distance>> out;
  for (const KnnResult& x : r) out.emplace_back(x.poi, x.dist);
  return out;
}

HeavyPool MakeHeavyPool(const Fixture& f, uint64_t seed) {
  HeavyPool pool;
  const Graph& g = *f.g;
  const auto span = f.pois->Vertices(0);
  const std::vector<VertexId> pois(span.begin(), span.end());
  auto ch_ctx = f.ch->NewContext();
  Rng rng(seed * 31 + 5);
  for (size_t i = 0; i < kHeavyPerKind; ++i) {
    for (HeavyPool::Kind kind :
         {HeavyPool::Kind::kOneToMany, HeavyPool::Kind::kKnn,
          HeavyPool::Kind::kPath}) {
      HeavyPool::Expect e;
      e.kind = kind;
      e.s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      e.t = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      const auto idx = static_cast<uint32_t>(pool.expect.size());
      std::string body;
      bool v2 = false;
      if (kind == HeavyPool::Kind::kOneToMany) {
        e.entries = OracleKnn(g, pois, e.s, pois.size());
        wire::OneToManyRequest req;
        req.source = e.s;
        body = wire::EncodeOneToManyRequest(req);
      } else if (kind == HeavyPool::Kind::kKnn) {
        e.entries = OracleKnn(g, pois, e.s, kKnnK);
        wire::KnnRequest req;
        req.method = wire::KnnMethod::kBucketCh;
        req.k = kKnnK;
        req.source = e.s;
        body = wire::EncodeKnnRequest(req);
      } else {
        e.dist = f.ch->DistanceQuery(ch_ctx.get(), e.s, e.t);
        wire::QueryRequest req;
        req.technique = f.technique;
        req.kind = wire::QueryKind::kPath;
        req.source = e.s;
        req.target = e.t;
        body = wire::EncodeQueryRequestV2(req);
        v2 = true;
      }
      pool.expect.push_back(std::move(e));
      pool.entries.push_back(perfbench::MakeEntry(body, v2, idx));
    }
  }
  return pool;
}

// A path answer is right when it is a real path from s to t whose weight
// is the expected shortest distance.
bool PathMatches(const Graph& g, const Path& path, VertexId s, VertexId t,
                 Distance dist) {
  if (dist == kInfDistance) return path.empty();
  return !path.empty() && path.front() == s && path.back() == t &&
         IsValidPath(g, path) && PathWeight(g, path) == dist;
}

perfbench::Checker HeavyChecker(const Graph* g, const HeavyPool* pool) {
  return [g, pool](uint32_t idx, const std::string& body) {
    ReplyCheck c;
    const HeavyPool::Expect& e = pool->expect[idx];
    if (e.kind == HeavyPool::Kind::kPath) {
      const auto resp = wire::DecodeQueryResponseV2(body);
      if (!resp.has_value()) return c;
      c.server_ns = resp->server_latency_ns;
      c.ok_status = resp->status == wire::Status::kOk ||
                    resp->status == wire::Status::kUnreachable;
      c.correct = c.ok_status &&
                  PathMatches(*g, resp->path, e.s, e.t, e.dist);
      return c;
    }
    const wire::MessageType type = e.kind == HeavyPool::Kind::kKnn
                                       ? wire::kKnnReply
                                       : wire::kOneToManyReply;
    const auto resp = wire::DecodeKnnResponse(type, body);
    if (!resp.has_value()) return c;
    c.server_ns = resp->server_latency_ns;
    c.ok_status = resp->status == wire::Status::kOk;
    c.correct = c.ok_status && resp->entries == e.entries;
    return c;
  };
}

// ---------------------------------------------------------------------------
// Phases over the served index.

ClassSpec Closed(const char* name, const std::vector<PoolEntry>* pool,
                 size_t first, size_t conns, size_t depth,
                 perfbench::Checker check) {
  ClassSpec c;
  c.name = name;
  c.pool = pool;
  c.first = first;
  c.connections = conns;
  c.depth = depth;
  c.check = std::move(check);
  return c;
}

ClassSpec Open(const char* name, const std::vector<PoolEntry>* pool,
               size_t first, const std::vector<uint64_t>* schedule,
               perfbench::Checker check) {
  ClassSpec c = Closed(name, pool, first, kOpenConns, 1, std::move(check));
  c.schedule_ns = schedule;
  c.max_outstanding = kOpenMaxOutstanding;
  return c;
}

std::vector<ClassResult> MustRun(uint16_t port,
                                 const std::vector<ClassSpec>& classes,
                                 double seconds,
                                 perfbench::SpanLog* spans) {
  std::string error;
  std::vector<ClassResult> r = perfbench::RunPhase(
      port, classes, SecondsToNs(seconds), kDrainNs, spans, &error);
  if (r.empty()) {
    std::fprintf(stderr, "perfbench: phase failed: %s\n", error.c_str());
    std::exit(2);
  }
  for (size_t i = 0; i < r.size(); ++i) {
    std::fprintf(stderr,
                 "perfbench:   %-12s %8" PRIu64 " sent %8" PRIu64
                 " ok %4" PRIu64 " failed (transport %" PRIu64
                 ", status %" PRIu64 ", wrong %" PRIu64
                 ", unanswered %" PRIu64 ")\n",
                 classes[i].name, r[i].attempted, r[i].ok, r[i].Failed(),
                 r[i].transport_errors, r[i].bad_status, r[i].wrong,
                 r[i].unanswered);
  }
  return r;
}

// Blocking admin exchange on its own connection (STATS, TRACE_CONFIG).
std::optional<std::string> Admin(uint16_t port, const std::string& body) {
  std::string error;
  ScopedFd fd = ConnectTcp("127.0.0.1", port, &error);
  std::string reply;
  if (!fd.valid() || !WriteFrame(fd.get(), body) ||
      !ReadFrame(fd.get(), &reply, wire::kMaxFrameBytes)) {
    return std::nullopt;
  }
  return reply;
}

bool SetServerTracing(uint16_t port, uint64_t sample_every) {
  wire::TraceConfigRequest req;
  req.sample_every = sample_every;
  const auto reply = Admin(port, wire::EncodeTraceConfigRequest(req));
  return reply.has_value() &&
         wire::DecodeTraceConfigResponse(*reply).has_value();
}

std::optional<wire::StatsResponse> ServerStats(uint16_t port) {
  const auto reply = Admin(port, wire::EncodeStatsRequest());
  if (!reply.has_value()) return std::nullopt;
  return wire::DecodeStatsResponse(*reply);
}

// Fills caches and lazy server state before timing (its answers are
// checked too), then records the peak RSS of the program under test:
// set-up, inputs and a served warm-up, before the load generator's own
// sample buffers grow.
void Warmup(uint16_t port, const PointPool& pool, Report* report,
            Tally* tally) {
  tally->Add(MustRun(port,
                     {Closed("warmup", &pool.entries, 0, 1, 1,
                             DistanceChecker(&pool.expect))},
                     kWarmupNs * 1e-9, nullptr)[0]);
  if (report != nullptr) report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

// ---------------------------------------------------------------------------
// Workloads, untraced: the end-to-end metrics.

// Send lag as a latency sample. It never goes negative (requests leave
// at or after their due time); an early send would read as 0.
std::vector<uint64_t> LagNs(const std::vector<int64_t>& lag_ns) {
  std::vector<uint64_t> ns;
  ns.reserve(lag_ns.size());
  for (int64_t v : lag_ns) ns.push_back(v < 0 ? 0 : static_cast<uint64_t>(v));
  return ns;
}

// Per-round values of each metric. The reported value is the median
// over rounds, so a transient stall on a shared host moves one round,
// not the metric; the sample count is the total over rounds and
// `beyond` the smallest per-round count.
class Rounds {
 public:
  // Returns the round's p50 in microseconds.
  double Latency(const std::string& prefix, std::vector<uint64_t> ns) {
    const perfbench::Percentile p50 = perfbench::TakePercentile(&ns, 0.50);
    const perfbench::Percentile p99 = perfbench::TakePercentile(&ns, 0.99);
    Push(prefix + "_p50_us", p50.value_ns * 1e-3, "us", p50);
    // A round whose p99 lacks ten samples beyond it (a slow heavy class
    // on a busy host) gives no p99; the metric is the median of the rest.
    if (p99.Supported()) {
      Push(prefix + "_p99_us", p99.value_ns * 1e-3, "us", p99);
    } else {
      std::fprintf(stderr,
                   "perfbench: %s_p99_us: %zu samples beyond, round left "
                   "out\n",
                   prefix.c_str(), p99.beyond);
    }
    return p50.value_ns * 1e-3;
  }

  void Lag(const std::string& prefix, const std::vector<int64_t>& lag_ns) {
    Latency(prefix, LagNs(lag_ns));
  }

  void Value(const std::string& name, double v, const char* unit) {
    Push(name, v, unit, perfbench::Percentile{});
  }

  // Adds the medians to the report.
  void Emit(Report* report) const {
    for (const std::string& name : order_) {
      const Series& s = series_.at(name);
      report->Add(name, perfbench::MedianOf(s.values), s.unit, s.samples,
                  s.samples > 0 ? s.beyond : 0);
    }
  }

 private:
  struct Series {
    std::vector<double> values;
    const char* unit = "";
    size_t samples = 0;
    size_t beyond = SIZE_MAX;
  };

  void Push(const std::string& name, double v, const char* unit,
            const perfbench::Percentile& p) {
    if (series_.count(name) == 0) order_.push_back(name);
    Series& s = series_[name];
    s.values.push_back(v);
    s.unit = unit;
    s.samples += p.samples;
    s.beyond = std::min(s.beyond, p.beyond);
  }

  std::map<std::string, Series> series_;
  std::vector<std::string> order_;
};

// The ladder gate: the generator's send-lag p99 as a share of the
// open-loop p50 it accompanies (below 10% means the harness error is
// smaller than what is measured).
void AddLagShare(Report* report, const std::string& rate) {
  const std::string lag = "loadgen.send_lag_" + rate + "_p99_us";
  if (!report->Has(lag)) return;
  report->Add("loadgen.send_lag_" + rate + "_p99_share_pct",
              100.0 * report->Get(lag) / report->Get("open_" + rate + "_p50_us"),
              "%");
}

double Rate(const ClassResult& r) {
  return static_cast<double>(r.ok) / r.seconds;
}

// The served rounds' host reference: the closed-loop round trip of a
// QUERY2-sized frame against a trivial echo socket, with no QueryServer
// (the harness floor). It costs the kernel, loopback and two thread
// wake-ups, which a busy shared host slows as it slows a served request,
// so the round's served figures are also given in multiples of it.
double EchoFloorUs(const PointPool& pool, size_t first, double seconds,
                   Rounds* rounds) {
  perfbench::EchoServer echo;
  if (!echo.ok()) {
    std::fprintf(stderr, "perfbench: echo peer failed\n");
    std::exit(2);
  }
  auto r = MustRun(echo.port(),
                   {Closed("echo", &pool.entries, first, 1, 1, EchoChecker())},
                   seconds, nullptr);
  return rounds->Latency("loadgen.echo_rtt", r[0].latency_ns);
}

void RunServedHlPoint(const Args& args, Report* report, Tally* tally) {
  Needs needs;
  needs.hl = true;
  needs.server = true;
  auto f = SetupRepeated(needs, args.seed, kSetupReps, report);
  const PointPool pool = MakePointPool(
      *f->ch, f->technique, RandomPairs(*f->g, kPointPool, args.seed));
  const uint16_t port = f->server->Port();
  const double s = args.seconds / kRounds;
  const auto check = DistanceChecker(&pool.expect);
  Warmup(port, pool, report, tally);

  Rounds rounds;
  for (int round = 0; round < kRounds; ++round) {
    const size_t at = static_cast<size_t>(round) * 2048;
    const uint64_t seed = args.seed * 1000 + round * 2;
    const double echo_us = EchoFloorUs(pool, at, 0.05 * s, &rounds);
    const CpuTimer closed_cpu(true);
    auto closed = MustRun(
        port, {Closed("closed", &pool.entries, at, 1, 1, check)}, 0.3 * s,
        nullptr);
    const double cpu_us = PerRequest(closed_cpu.Us(), closed[0].ok);
    rounds.Value("cpu_us_per_req", cpu_us, "us");
    rounds.Value("cpu_per_req_rel", cpu_us / echo_us, "x");
    const auto lo_sched =
        perfbench::PoissonSchedule(kOpenLoRate, SecondsToNs(0.2 * s), seed);
    auto lo = MustRun(
        port, {Open("open_lo", &pool.entries, at + 512, &lo_sched, check)},
        0.2 * s, nullptr);
    const auto hi_sched = perfbench::PoissonSchedule(
        kOpenHiRate, SecondsToNs(0.2 * s), seed + 1);
    auto hi = MustRun(
        port, {Open("open_hi", &pool.entries, at + 1024, &hi_sched, check)},
        0.2 * s, nullptr);
    const CpuTimer sat_cpu(true);
    auto sat = MustRun(port,
                       {Closed("saturation", &pool.entries, at + 1536,
                               kSatConns, kSatDepth, check)},
                       0.25 * s, nullptr);
    rounds.Value("saturation_cpu_us_per_req",
                 PerRequest(sat_cpu.Us(), sat[0].ok), "us");
    rounds.Value("lat_p50_rel",
                 rounds.Latency("closed", closed[0].latency_ns) / echo_us, "x");
    rounds.Latency("open_lo", lo[0].latency_ns);
    rounds.Latency("open_hi", hi[0].latency_ns);
    rounds.Value("peak_qps", Rate(sat[0]), "1/s");
    rounds.Lag("loadgen.send_lag_lo", lo[0].send_lag_ns);
    rounds.Lag("loadgen.send_lag_hi", hi[0].send_lag_ns);
    for (auto* r : {&closed[0], &lo[0], &hi[0], &sat[0]}) tally->Add(*r);
  }
  rounds.Emit(report);
  AddLagShare(report, "lo");
  AddLagShare(report, "hi");
}

void RunServedMixed(const Args& args, Report* report, Tally* tally) {
  Needs needs;
  needs.hl = true;
  needs.knn = true;
  needs.server = true;
  auto f = SetupRepeated(needs, args.seed, kSetupReps, report);
  const PointPool pool = MakePointPool(
      *f->ch, f->technique, RandomPairs(*f->g, kPointPool, args.seed));
  const HeavyPool heavy = MakeHeavyPool(*f, args.seed);
  const uint16_t port = f->server->Port();
  const double s = args.seconds / kRounds;
  Warmup(port, pool, report, tally);

  Rounds rounds;
  for (int round = 0; round < kRounds; ++round) {
    const size_t at = static_cast<size_t>(round) * 1024;
    const double echo_us = EchoFloorUs(pool, at, 0.05 * s, &rounds);
    const auto sched = perfbench::PoissonSchedule(
        kOpenLoRate, SecondsToNs(0.95 * s), args.seed * 1000 + round);
    const CpuTimer cpu(true);
    auto r = MustRun(
        port,
        {Open("light", &pool.entries, at, &sched,
              DistanceChecker(&pool.expect)),
         Closed("heavy", &heavy.entries, static_cast<size_t>(round) * 3, 1,
                1, HeavyChecker(f->g.get(), &heavy))},
        0.95 * s, nullptr);
    // Per heavy request: the light class's count is fixed by its
    // schedule, so dividing by both would shift with the mix.
    const double cpu_us = PerRequest(cpu.Us(), r[1].ok);
    rounds.Value("cpu_us_per_req", cpu_us, "us");
    rounds.Value("cpu_per_req_rel", cpu_us / echo_us, "x");
    rounds.Latency("open_lo", r[0].latency_ns);
    rounds.Value("lat_p50_rel",
                 rounds.Latency("heavy", r[1].latency_ns) / echo_us, "x");
    rounds.Value("heavy_qps", Rate(r[1]), "1/s");
    rounds.Lag("loadgen.send_lag_lo", r[0].send_lag_ns);
    tally->Add(r[0]);
    tally->Add(r[1]);
  }
  rounds.Emit(report);
  AddLagShare(report, "lo");
}

// The paper's Q1..Q10 L-infinity sets in equal parts, one list.
std::vector<std::pair<VertexId, VertexId>> Flatten(
    const std::vector<QuerySet>& sets) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const QuerySet& q : sets) {
    out.insert(out.end(), q.pairs.begin(), q.pairs.end());
  }
  return out;
}

size_t EngineThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void RunBatchChPaths(const Args& args, Report* report, Tally* tally) {
  Needs needs;
  needs.dataset = kBatchDataset;
  auto f = SetupRepeated(needs, args.seed, kSetupReps, report);
  const Graph& g = *f->g;
  const auto pairs =
      Flatten(GenerateLInfQuerySets(g, kBatchPerSet, args.seed));

  // Oracle sample: bidirectional Dijkstra on evenly spaced queries.
  const BidirectionalDijkstra bidi(g);
  auto bctx = bidi.NewContext();
  std::vector<std::pair<size_t, Distance>> sample;
  for (size_t i = 0; i < kBatchOracleSample; ++i) {
    const size_t q = i * pairs.size() / kBatchOracleSample;
    sample.emplace_back(
        q, bidi.DistanceQuery(bctx.get(), pairs[q].first, pairs[q].second));
  }

  QueryEngine engine(*f->ch, EngineThreads());
  BatchOptions dist_opts;
  dist_opts.record_per_query = true;
  dist_opts.trace_epoch = std::chrono::steady_clock::now();
  BatchOptions path_opts = dist_opts;
  path_opts.collect_paths = true;

  // Warm-up pair of batches, untimed; the distance answers become the
  // reference the timed batches are checked against.
  const std::vector<Distance> reference =
      engine.Run(pairs, dist_opts).distances;
  engine.Run(pairs, path_opts);
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
  HostProbe probe(EngineThreads(), args.seed);

  Rounds rounds;
  for (int round = 0; round < kRounds; ++round) {
    const double probe_ns = probe.StepNs();
    ClassResult dist_r, path_r;
    double dist_wall = 0, path_wall = 0, cpu_us = 0;
    const uint64_t end = NowNs() + SecondsToNs(args.seconds / kRounds);
    // Every distance batch is followed by its path batch.
    for (bool paths = false; NowNs() < end || paths; paths = !paths) {
      const uint64_t t0 = NowNs();
      const CpuTimer cpu(false);
      BatchResult r = engine.Run(pairs, paths ? path_opts : dist_opts);
      cpu_us += cpu.Us();
      (paths ? path_wall : dist_wall) += SecondsSince(t0);
      ClassResult& out = paths ? path_r : dist_r;
      for (size_t i = 0; i < pairs.size(); ++i) {
        const bool right =
            paths ? PathMatches(g, r.paths[i], pairs[i].first,
                                pairs[i].second, reference[i])
                  : r.distances[i] == reference[i];
        ++out.attempted;
        if (right) {
          ++out.ok;
          out.latency_ns.push_back(r.query_end_ns[i] - r.query_start_ns[i]);
        } else {
          ++out.wrong;
          out.latency_ns.push_back(perfbench::kFailedNs);
        }
      }
    }
    const double dist_p50 = rounds.Latency("batch_dist", dist_r.latency_ns);
    rounds.Latency("batch_path", path_r.latency_ns);
    const double cpu = PerRequest(cpu_us, dist_r.ok + path_r.ok);
    rounds.Value("cpu_us_per_req", cpu, "us");
    rounds.Value("host_probe_ns", probe_ns, "ns");
    rounds.Value("lat_p50_rel", dist_p50 * 1e3 / probe_ns, "x");
    rounds.Value("cpu_per_req_rel", cpu * 1e3 / probe_ns, "x");
    rounds.Value("batch_dist_qps", static_cast<double>(dist_r.ok) / dist_wall,
                 "1/s");
    rounds.Value("batch_path_qps", static_cast<double>(path_r.ok) / path_wall,
                 "1/s");
    tally->Add(dist_r);
    tally->Add(path_r);
  }
  // The reference answers must match the bidirectional Dijkstra sample.
  for (const auto& [q, truth] : sample) {
    ++tally->attempted;
    if (reference[q] != truth) {
      std::fprintf(stderr, "perfbench: query %zu: CH %" PRIu64
                   " != bidirectional Dijkstra %" PRIu64 "\n",
                   q, static_cast<uint64_t>(reference[q]),
                   static_cast<uint64_t>(truth));
      ++tally->wrong;
      ++tally->failed;
    }
  }
  rounds.Emit(report);
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer ladder, on the workload's own graph and
// served index, from the direct index call out to the client.

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> n = {"graph.build_s", "ch.contract_s",
                                "ch.index_mib"};
  for (int i = 1; i <= 10; ++i) n.push_back("ch.dist_us.q" + std::to_string(i));
  for (int i = 1; i <= 10; ++i) n.push_back("ch.path_us.q" + std::to_string(i));
  for (const char* s :
       {"ch.settled_per_query", "ch.unpacked_per_path", "hl.build_s",
        "hl.label_mib", "hl.dist_us", "hl.avg_label_entries",
        "knn.bucket_build_s", "knn.bucket_entries", "knn.knn_us",
        "knn.otm_us", "knn.lookups_per_query", "engine.run1_us",
        "engine.run64_us_per_query", "engine.stolen_chunks",
        "server.residence_p50_us", "server.residence_p99_us",
        "server.overhead_p50_us", "server.shed_overloaded",
        "server.shed_deadline"}) {
    n.push_back(s);
  }
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    n.push_back(std::string("server.stage.") +
                TraceStageName(static_cast<TraceStage>(i)) + "_p50_us");
  }
  for (const char* s :
       {"server.untiled_p50_us", "wire.transport_p50_us",
        "wire.reply_bytes_per_req", "loadgen.send_lag_p50_us",
        "loadgen.send_lag_p99_us", "loadgen.echo_rtt_p50_us",
        "loadgen.achieved_qps", "obs.trace_overhead_pct"}) {
    n.push_back(s);
  }
  return n;
}

// Times `fn` over `reps` repetitions and returns the median wall time in
// microseconds, with one span per repetition.
double MedianUs(int reps, const char* span, perfbench::SpanLog* spans,
                const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    const uint64_t t1 = NowNs();
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    spans->Add({static_cast<uint64_t>(i), span, "layer", t0, t1});
  }
  return perfbench::MedianOf(us);
}

void CountWrong(bool right, Tally* tally) {
  ++tally->attempted;
  if (!right) {
    ++tally->wrong;
    ++tally->failed;
  }
}

// Direct calls into ch, hl and knn on the workload's inputs.
void LayerCalls(const Fixture& f, const PointPool& pool,
                const HeavyPool& heavy, uint64_t seed, Report* report,
                perfbench::SpanLog* spans, Tally* tally) {
  const Graph& g = *f.g;
  report->Add("graph.build_s", f.graph_s, "s");
  report->Add("ch.contract_s", f.contract_s, "s");
  report->Add("ch.index_mib", Mib(f.ch->IndexBytes()), "MiB");
  report->Add("hl.build_s", f.hl_s, "s");
  report->Add("hl.label_mib", Mib(f.hl->LabelBytes()), "MiB");
  report->Add("hl.avg_label_entries", f.hl->AvgLabelEntries(), "count");
  report->Add("knn.bucket_build_s", f.bucket_s, "s");
  report->Add("knn.bucket_entries",
              static_cast<double>(f.bucket->NumBucketEntries()), "count");

  // CH on the paper's Q1..Q10, each query timed on its own, checked
  // against hub labels.
  const std::vector<QuerySet> sets =
      GenerateLInfQuerySets(g, kLadderPerSet, seed);
  auto ch_ctx = f.ch->NewContext();
  auto hl_ctx = f.hl->NewContext();
  uint64_t settled = 0, unpacked = 0, queries = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const auto& pairs = sets[i].pairs;
    std::vector<Distance> truth;
    double dist_ns = 0, path_ns = 0;
    const uint64_t set_t0 = NowNs();
    for (const auto& [s, t] : pairs) {
      const uint64_t t0 = NowNs();
      const Distance d = f.ch->DistanceQuery(ch_ctx.get(), s, t);
      dist_ns += static_cast<double>(NowNs() - t0);
      settled += ch_ctx->counters.vertices_settled;
      truth.push_back(d);
      CountWrong(d == f.hl->DistanceQuery(hl_ctx.get(), s, t), tally);
    }
    for (size_t q = 0; q < pairs.size(); ++q) {
      const uint64_t t0 = NowNs();
      const Path p = f.ch->PathQuery(ch_ctx.get(), pairs[q].first,
                                     pairs[q].second);
      path_ns += static_cast<double>(NowNs() - t0);
      unpacked += ch_ctx->counters.shortcuts_unpacked;
      CountWrong(PathMatches(g, p, pairs[q].first, pairs[q].second, truth[q]),
                 tally);
    }
    spans->Add({i + 1, "ch.query_set", "layer", set_t0, NowNs()});
    queries += pairs.size();
    const double n = std::max<double>(1, static_cast<double>(pairs.size()));
    report->Add("ch.dist_us.q" + std::to_string(i + 1), dist_ns * 1e-3 / n,
                "us", pairs.size());
    report->Add("ch.path_us.q" + std::to_string(i + 1), path_ns * 1e-3 / n,
                "us", pairs.size());
  }
  const double nq = std::max<double>(1, static_cast<double>(queries));
  report->Add("ch.settled_per_query", static_cast<double>(settled) / nq,
              "count");
  report->Add("ch.unpacked_per_path", static_cast<double>(unpacked) / nq,
              "count");

  // HL merges are ~0.3 us: time whole passes over the pool, not calls.
  Distance sink = 0;
  const double hl_pass_us = MedianUs(5, "hl.dist_pass", spans, [&] {
    for (const auto& [s, t] : pool.pairs) {
      sink += f.hl->DistanceQuery(hl_ctx.get(), s, t);
    }
  });
  for (size_t i = 0; i < pool.pairs.size(); ++i) {
    CountWrong(f.hl->DistanceQuery(hl_ctx.get(), pool.pairs[i].first,
                                   pool.pairs[i].second) == pool.expect[i],
               tally);
  }
  report->Add("hl.dist_us",
              hl_pass_us / static_cast<double>(pool.pairs.size()), "us",
              pool.pairs.size());

  // Bucket-CH kNN and one-to-many on the heavy pool's sources, checked
  // against the Dijkstra oracle.
  KnnBucketIndex::Context kctx = f.bucket->NewContext();
  std::vector<KnnResult> out;
  double knn_ns = 0, otm_ns = 0;
  uint64_t lookups = 0, knn_n = 0, otm_n = 0;
  const uint64_t knn_t0 = NowNs();
  for (const HeavyPool::Expect& e : heavy.expect) {
    if (e.kind == HeavyPool::Kind::kPath) continue;
    const uint64_t t0 = NowNs();
    if (e.kind == HeavyPool::Kind::kKnn) {
      f.bucket->KnnQuery(&kctx, 0, e.s, kKnnK, &out);
      knn_ns += static_cast<double>(NowNs() - t0);
      lookups += kctx.counters.table_lookups;
      ++knn_n;
    } else {
      f.bucket->OneToManyQuery(&kctx, 0, e.s, &out);
      otm_ns += static_cast<double>(NowNs() - t0);
      ++otm_n;
    }
    std::vector<std::pair<VertexId, Distance>> got;
    for (const KnnResult& x : out) got.emplace_back(x.poi, x.dist);
    CountWrong(got == e.entries, tally);
  }
  spans->Add({0, "knn.queries", "layer", knn_t0, NowNs()});
  report->Add("knn.knn_us", knn_ns * 1e-3 / std::max<uint64_t>(knn_n, 1),
              "us", knn_n);
  report->Add("knn.otm_us", otm_ns * 1e-3 / std::max<uint64_t>(otm_n, 1),
              "us", otm_n);
  report->Add("knn.lookups_per_query",
              static_cast<double>(lookups) / std::max<uint64_t>(knn_n, 1),
              "count");
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the HL loop alive
}

// QueryEngine over the served index: 1-query and 64-query batches.
void EngineCalls(const Fixture& f, const PointPool& pool, Report* report,
                 perfbench::SpanLog* spans) {
  QueryEngine engine(*f.served, EngineThreads());
  BatchOptions opts;
  size_t next = 0;
  const double run1 = MedianUs(2000, "engine.run1", spans, [&] {
    engine.Run(std::span(pool.pairs).subspan(next++ % pool.pairs.size(), 1),
               opts);
  });
  uint64_t stolen = 0;
  const double run64 = MedianUs(500, "engine.run64", spans, [&] {
    const size_t at = (next += 64) % (pool.pairs.size() - 64);
    stolen += engine.Run(std::span(pool.pairs).subspan(at, 64), opts)
                  .stats.stolen_chunks;
  });
  report->Add("engine.run1_us", run1, "us", 2000);
  report->Add("engine.run64_us_per_query", run64 / 64, "us", 500);
  report->Add("engine.stolen_chunks", static_cast<double>(stolen) / 500,
              "count");
}

void RunTraced(const Args& args, Report* report, perfbench::SpanLog* spans,
               Tally* tally) {
  const bool batch = args.workload == "batch_ch_paths";
  Needs needs;
  needs.dataset = batch ? kBatchDataset : kServedDataset;
  needs.hl = needs.knn = needs.server = true;
  auto f = BuildFixture(needs, args.seed);
  std::fprintf(stderr, "perfbench: traced setup %.3f s\n", f->Total());
  // Expected answers come from the technique the server does not host.
  const PathIndex& oracle =
      batch ? static_cast<const PathIndex&>(*f->hl) : *f->ch;
  const PointPool pool = MakePointPool(
      oracle, f->technique, RandomPairs(*f->g, kPointPool, args.seed));
  const HeavyPool heavy = MakeHeavyPool(*f, args.seed);

  LayerCalls(*f, pool, heavy, args.seed, report, spans, tally);
  EngineCalls(*f, pool, report, spans);

  const double s = args.seconds;
  const auto check = DistanceChecker(&pool.expect);
  {
    perfbench::EchoServer echo;
    if (!echo.ok()) {
      std::fprintf(stderr, "perfbench: echo peer failed\n");
      std::exit(2);
    }
    auto r = MustRun(echo.port(),
                     {Closed("echo", &pool.entries, 0, 1, 1, EchoChecker())},
                     0.1 * s, nullptr);
    report->Add("loadgen.echo_rtt_p50_us",
                perfbench::TakePercentile(&r[0].latency_ns, 0.5).value_ns *
                    1e-3,
                "us", r[0].latency_ns.size());
  }

  const uint16_t port = f->server->Port();
  Warmup(port, pool, nullptr, tally);
  // Closed loop with the server tracer idle and live, alternated.
  std::vector<double> p50_off, p50_on;
  std::vector<uint64_t> residence_off, residence_on;
  std::vector<double> transport;
  for (int round = 0; round < 2; ++round) {
    for (bool traced : {false, true}) {
      if (!SetServerTracing(port, traced ? 1 : 0)) {
        std::fprintf(stderr, "perfbench: TRACE_CONFIG failed\n");
        std::exit(2);
      }
      auto r = MustRun(port,
                       {Closed(traced ? "closed_on" : "closed_off",
                               &pool.entries, 1000 * (round + 1), 1, 1,
                               check)},
                       0.1 * s, traced ? spans : nullptr);
      tally->Add(r[0]);
      (traced ? p50_on : p50_off)
          .push_back(perfbench::TakePercentile(&r[0].latency_ns, 0.5).value_ns);
      auto& res = traced ? residence_on : residence_off;
      res.insert(res.end(), r[0].server_ns.begin(), r[0].server_ns.end());
      if (!traced) {
        transport.insert(transport.end(), r[0].transport_ns.begin(),
                         r[0].transport_ns.end());
      }
    }
  }
  report->Add("obs.trace_overhead_pct",
              perfbench::OverheadPct(perfbench::MedianOf(p50_off),
                                     perfbench::MedianOf(p50_on)),
              "%");
  {
    const auto r50 = perfbench::TakePercentile(&residence_off, 0.5);
    const auto r99 = perfbench::TakePercentile(&residence_off, 0.99);
    report->Add("server.residence_p50_us", r50.value_ns * 1e-3, "us",
                r50.samples, r50.beyond);
    report->Add("server.residence_p99_us", r99.value_ns * 1e-3, "us",
                r99.samples, r99.beyond);
    report->Add("server.overhead_p50_us",
                perfbench::ServerOverheadUs(r50.value_ns * 1e-3,
                                            report->Get("engine.run1_us")),
                "us");
    report->Add("wire.transport_p50_us",
                perfbench::MedianOf(transport) * 1e-3, "us",
                transport.size());
  }

  // The workload's own traffic with the tracer live: open loop at the
  // low fixed rate, plus the heavy class on served_mixed.
  const auto sched = perfbench::PoissonSchedule(
      kOpenLoRate, SecondsToNs(0.3 * s), args.seed * 3 + 1);
  std::vector<ClassSpec> classes = {
      Open("open_lo", &pool.entries, 3000, &sched, check)};
  if (args.workload == "served_mixed") {
    classes.push_back(Closed("heavy", &heavy.entries, 0, 1, 1,
                             HeavyChecker(f->g.get(), &heavy)));
  }
  auto r = MustRun(port, classes, 0.3 * s, spans);
  uint64_t bytes = 0, replies = 0;
  for (const ClassResult& c : r) {
    tally->Add(c);
    bytes += c.reply_bytes;
    replies += c.replies;
    residence_on.insert(residence_on.end(), c.server_ns.begin(),
                        c.server_ns.end());
  }
  report->Add("wire.reply_bytes_per_req",
              static_cast<double>(bytes) / std::max<uint64_t>(replies, 1),
              "B", replies);
  std::vector<uint64_t> lag = LagNs(r[0].send_lag_ns);
  const auto l50 = perfbench::TakePercentile(&lag, 0.5);
  const auto l99 = perfbench::TakePercentile(&lag, 0.99);
  report->Add("loadgen.send_lag_p50_us", l50.value_ns * 1e-3, "us",
              l50.samples, l50.beyond);
  report->Add("loadgen.send_lag_p99_us", l99.value_ns * 1e-3, "us",
              l99.samples, l99.beyond);
  report->Add("loadgen.achieved_qps",
              static_cast<double>(r[0].ok) / r[0].seconds, "1/s");

  // The server's own view: shed counters and the per-stage table of
  // every traced request.
  const auto stats = ServerStats(port);
  if (!stats.has_value()) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    std::exit(2);
  }
  report->Add("server.shed_overloaded",
              static_cast<double>(stats->shed_overloaded), "count");
  report->Add("server.shed_deadline",
              static_cast<double>(stats->shed_deadline), "count");
  double tiled_us = 0;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    double p50_us = 0;
    uint64_t count = 0;
    for (const wire::StageStatWire& w : stats->stages) {
      if (w.stage == i) {
        p50_us = static_cast<double>(w.p50_ns) * 1e-3;
        count = w.count;
      }
    }
    report->Add(std::string("server.stage.") + TraceStageName(stage) +
                    "_p50_us",
                p50_us, "us", count);
    // Stages inside the reply's server_latency_ns window.
    if (stage == TraceStage::kEnqueue || stage == TraceStage::kQueueWait ||
        stage == TraceStage::kBatchAssembly ||
        stage == TraceStage::kExecute) {
      tiled_us += p50_us;
    }
  }
  report->Add("server.untiled_p50_us",
              perfbench::TakePercentile(&residence_on, 0.5).value_ns * 1e-3 -
                  tiled_us,
              "us");
}

bool WriteSpans(const std::string& path, const perfbench::SpanLog& log) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const perfbench::Span& s : log.spans) {
    std::fprintf(out,
                 "{\"trace_id\": %" PRIu64 ", \"name\": \"%s\", "
                 "\"parent\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 "}\n",
                 s.trace_id, s.name, s.parent, s.start_ns, s.end_ns);
  }
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  Report report;
  Tally tally;
  if (args.workload != "served_hl_point" && args.workload != "served_mixed" &&
      args.workload != "batch_ch_paths") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::string title = args.workload + " seed " + std::to_string(args.seed);
  std::vector<std::string> names(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (args.trace) {
    perfbench::SpanLog spans;
    spans.cap = 200'000;
    spans.spans.reserve(spans.cap);
    RunTraced(args, &report, &spans, &tally);
    if (!args.spans_out.empty() && !WriteSpans(args.spans_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 1;
    }
    title += " (traced ladder)";
    names = PerLayerNames();
  } else if (args.workload == "served_hl_point") {
    RunServedHlPoint(args, &report, &tally);
  } else if (args.workload == "served_mixed") {
    RunServedMixed(args, &report, &tally);
  } else {
    RunBatchChPaths(args, &report, &tally);
  }
  tally.AddTo(&report);
  report.PrintTable(title);
  const bool correct = tally.wrong == 0;
  if (!report.PrintJson(names, correct, tally.attempted, tally.failed)) {
    return 1;
  }
  if (!correct) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " wrong answers\n", tally.wrong);
    return 1;
  }
  return 0;
}
