// Fuzz harness for the wire codec (src/server/wire.*): every decoder
// must reject or accept arbitrary bytes without reading out of bounds,
// and every accepted message must survive an encode/decode round trip
// with its fields intact. Violations trap (libFuzzer and the fallback
// replay driver both turn that into a crash with the offending input).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "server/wire.h"
#include "tests/fuzz/fuzz_main.h"

namespace roadnet {
namespace {

#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

void CheckQueryRequest(const std::string& body) {
  auto req = wire::DecodeQueryRequestV2(body);
  if (!req) return;
  auto again = wire::DecodeQueryRequestV2(wire::EncodeQueryRequestV2(*req));
  FUZZ_CHECK(again.has_value());
  FUZZ_CHECK(again->request_id == req->request_id);
  FUZZ_CHECK(again->technique == req->technique);
  FUZZ_CHECK(again->kind == req->kind);
  FUZZ_CHECK(again->source == req->source);
  FUZZ_CHECK(again->target == req->target);
  FUZZ_CHECK(again->deadline_micros == req->deadline_micros);
}

void CheckQueryResponse(const std::string& body) {
  auto resp = wire::DecodeQueryResponseV2(body);
  if (!resp) return;
  auto again =
      wire::DecodeQueryResponseV2(wire::EncodeQueryResponseV2(*resp));
  FUZZ_CHECK(again.has_value());
  FUZZ_CHECK(again->request_id == resp->request_id);
  FUZZ_CHECK(again->status == resp->status);
  FUZZ_CHECK(again->distance == resp->distance);
  FUZZ_CHECK(again->server_latency_ns == resp->server_latency_ns);
  FUZZ_CHECK(again->path == resp->path);
}

void CheckStatsResponse(const std::string& body) {
  auto stats = wire::DecodeStatsResponse(body);
  if (!stats) return;
  auto again = wire::DecodeStatsResponse(wire::EncodeStatsResponse(*stats));
  FUZZ_CHECK(again.has_value());
  FUZZ_CHECK(again->served == stats->served);
  FUZZ_CHECK(again->bad_requests == stats->bad_requests);
  FUZZ_CHECK(again->distance_p99_ns == stats->distance_p99_ns);
  FUZZ_CHECK(again->loop_connections == stats->loop_connections);
  FUZZ_CHECK(again->stages.size() == stats->stages.size());
  for (size_t i = 0; i < again->stages.size(); ++i) {
    FUZZ_CHECK(again->stages[i].stage == stats->stages[i].stage);
    FUZZ_CHECK(again->stages[i].count == stats->stages[i].count);
    FUZZ_CHECK(again->stages[i].p50_ns == stats->stages[i].p50_ns);
    FUZZ_CHECK(again->stages[i].p99_ns == stats->stages[i].p99_ns);
  }
}

void CheckTraceConfig(const std::string& body) {
  if (auto req = wire::DecodeTraceConfigRequest(body)) {
    auto again =
        wire::DecodeTraceConfigRequest(wire::EncodeTraceConfigRequest(*req));
    FUZZ_CHECK(again.has_value());
    FUZZ_CHECK(again->sample_every == req->sample_every);
    FUZZ_CHECK(again->slow_micros == req->slow_micros);
  }
  if (auto resp = wire::DecodeTraceConfigResponse(body)) {
    auto again =
        wire::DecodeTraceConfigResponse(wire::EncodeTraceConfigResponse(*resp));
    FUZZ_CHECK(again.has_value());
    FUZZ_CHECK(again->sample_every == resp->sample_every);
    FUZZ_CHECK(again->slow_micros == resp->slow_micros);
  }
}

void CheckKnnFamily(const std::string& body) {
  if (auto req = wire::DecodeKnnRequest(body)) {
    auto again = wire::DecodeKnnRequest(wire::EncodeKnnRequest(*req));
    FUZZ_CHECK(again.has_value());
    FUZZ_CHECK(again->method == req->method);
    FUZZ_CHECK(again->category == req->category);
    FUZZ_CHECK(again->k == req->k);
    FUZZ_CHECK(again->source == req->source);
  }
  if (auto req = wire::DecodeOneToManyRequest(body)) {
    auto again =
        wire::DecodeOneToManyRequest(wire::EncodeOneToManyRequest(*req));
    FUZZ_CHECK(again.has_value());
    FUZZ_CHECK(again->category == req->category);
    FUZZ_CHECK(again->source == req->source);
  }
  for (wire::MessageType reply : {wire::kKnnReply, wire::kOneToManyReply}) {
    if (auto resp = wire::DecodeKnnResponse(reply, body)) {
      auto again =
          wire::DecodeKnnResponse(reply, wire::EncodeKnnResponse(reply, *resp));
      FUZZ_CHECK(again.has_value());
      FUZZ_CHECK(again->status == resp->status);
      FUZZ_CHECK(again->entries == resp->entries);
    }
  }
}

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

namespace fuzz {

// Real frames from every encoder, plus truncated/corrupt variants, so
// the fuzzer starts from deep inside the accepting states.
void WriteSeedCorpus(const std::string& dir) {
  wire::QueryRequest q;
  q.request_id = 7;
  q.technique = wire::TechniqueId("ch");
  q.kind = wire::QueryKind::kPath;
  q.source = 12;
  q.target = 3400;
  q.deadline_micros = 250000;
  WriteFile(dir, "query_req_v2.bin", wire::EncodeQueryRequestV2(q));

  wire::QueryResponse qr;
  qr.request_id = 7;
  qr.status = wire::Status::kOk;
  qr.distance = 123456;
  qr.server_latency_ns = 52000;
  qr.path = {12, 13, 90, 3400};
  WriteFile(dir, "query_resp_v2.bin", wire::EncodeQueryResponseV2(qr));

  wire::StatsResponse st;
  st.served = 10;
  st.distance_count = 6;
  st.distance_p50_ns = 4000;
  st.distance_p99_ns = 90000;
  st.loop_connections = {3, 1};
  st.stages = {{1, 6, 700, 2000}, {2, 6, 100, 400}};
  WriteFile(dir, "stats_resp.bin", wire::EncodeStatsResponse(st));

  wire::TraceConfigRequest tc;
  tc.sample_every = 16;
  WriteFile(dir, "trace_config_req.bin", wire::EncodeTraceConfigRequest(tc));
  wire::TraceConfigResponse tcr;
  tcr.sample_every = 16;
  tcr.slow_micros = 1000;
  WriteFile(dir, "trace_config_resp.bin",
            wire::EncodeTraceConfigResponse(tcr));

  wire::KnnRequest knn;
  knn.method = wire::KnnMethod::kBucketCh;
  knn.category = 2;
  knn.k = 8;
  knn.source = 42;
  knn.deadline_micros = 250000;
  WriteFile(dir, "knn_req.bin", wire::EncodeKnnRequest(knn));

  wire::OneToManyRequest otm;
  otm.category = 2;
  otm.source = 42;
  otm.deadline_micros = 250000;
  WriteFile(dir, "one_to_many_req.bin", wire::EncodeOneToManyRequest(otm));

  wire::KnnResponse kr;
  kr.status = wire::Status::kOk;
  kr.server_latency_ns = 9000;
  kr.entries = {{42, 0}, {99, 1200}};
  WriteFile(dir, "knn_resp.bin",
            wire::EncodeKnnResponse(wire::kKnnReply, kr));
  WriteFile(dir, "one_to_many_resp.bin",
            wire::EncodeKnnResponse(wire::kOneToManyReply, kr));

  WriteFile(dir, "stats_req.bin", wire::EncodeStatsRequest());
  WriteFile(dir, "shutdown_req.bin", wire::EncodeShutdownRequest());

  // Hostile inputs: a truncated response and a path length lying about
  // the remaining bytes.
  const std::string resp = wire::EncodeQueryResponseV2(qr);
  WriteFile(dir, "truncated_resp.bin", resp.substr(0, resp.size() / 2));
  std::string lying = resp;
  lying[26] = char(0xff);  // path_len low byte, body now too short
  WriteFile(dir, "lying_path_len.bin", lying);
  WriteFile(dir, "empty.bin", std::string());
}

}  // namespace fuzz
}  // namespace roadnet

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace roadnet;
  const std::string body(reinterpret_cast<const char*>(data), size);
  wire::PeekType(body);
  CheckQueryRequest(body);
  CheckQueryResponse(body);
  CheckStatsResponse(body);
  CheckTraceConfig(body);
  CheckKnnFamily(body);
  return 0;
}
