#include "server/client.h"

namespace roadnet {

namespace {

// Sets *error (when non-null) and reports failure.
bool Fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

std::unique_ptr<BlockingClient> BlockingClient::Connect(
    const std::string& host, uint16_t port, std::string* error) {
  ScopedFd fd = ConnectTcp(host, port, error);
  if (!fd.valid()) return nullptr;
  return std::unique_ptr<BlockingClient>(new BlockingClient(std::move(fd)));
}

bool BlockingClient::Write(const std::string& body, std::string* error) {
  if (!fd_.valid()) return Fail(error, "connection already closed");
  if (!WriteFrame(fd_.get(), body)) return Fail(error, "write failed");
  return true;
}

bool BlockingClient::Read(std::string* body, std::string* error) {
  if (!fd_.valid()) return Fail(error, "connection already closed");
  bool clean_eof = false;
  if (!ReadFrame(fd_.get(), body, wire::kMaxFrameBytes, &clean_eof)) {
    return Fail(error,
                clean_eof ? "server closed the connection" : "read failed");
  }
  return true;
}

bool BlockingClient::RoundTrip(const std::string& request,
                               std::string* reply_body, std::string* error) {
  return Write(request, error) && Read(reply_body, error);
}

bool BlockingClient::Query(const wire::QueryRequest& req,
                           wire::QueryResponse* resp, std::string* error) {
  if (!Send(req, error) || !Recv(resp, error)) return false;
  if (resp->request_id != req.request_id) {
    return Fail(error, "QUERY_REPLY2 echoes another request_id");
  }
  return true;
}

bool BlockingClient::Send(const wire::QueryRequest& req,
                          std::string* error) {
  return Write(wire::EncodeQueryRequestV2(req), error);
}

bool BlockingClient::Recv(wire::QueryResponse* resp, std::string* error) {
  std::string body;
  if (!Read(&body, error)) return false;
  auto decoded = wire::DecodeQueryResponseV2(body);
  if (!decoded.has_value()) return Fail(error, "malformed QUERY_REPLY2 frame");
  *resp = std::move(*decoded);
  return true;
}

bool BlockingClient::Knn(const wire::KnnRequest& req,
                         wire::KnnResponse* resp, std::string* error) {
  std::string body;
  if (!RoundTrip(wire::EncodeKnnRequest(req), &body, error)) return false;
  auto decoded = wire::DecodeKnnResponse(wire::kKnnReply, body);
  if (!decoded.has_value()) return Fail(error, "malformed KNN_REPLY frame");
  *resp = std::move(*decoded);
  return true;
}

bool BlockingClient::OneToMany(const wire::OneToManyRequest& req,
                               wire::KnnResponse* resp, std::string* error) {
  std::string body;
  if (!RoundTrip(wire::EncodeOneToManyRequest(req), &body, error)) {
    return false;
  }
  auto decoded = wire::DecodeKnnResponse(wire::kOneToManyReply, body);
  if (!decoded.has_value()) {
    return Fail(error, "malformed ONE_TO_MANY_REPLY frame");
  }
  *resp = std::move(*decoded);
  return true;
}

bool BlockingClient::GetStats(wire::StatsResponse* stats,
                              std::string* error) {
  std::string body;
  if (!RoundTrip(wire::EncodeStatsRequest(), &body, error)) return false;
  auto decoded = wire::DecodeStatsResponse(body);
  if (!decoded.has_value()) return Fail(error, "malformed STATS_REPLY frame");
  *stats = *decoded;
  return true;
}

bool BlockingClient::ConfigureTracing(const wire::TraceConfigRequest& req,
                                      wire::TraceConfigResponse* effective,
                                      std::string* error) {
  std::string body;
  if (!RoundTrip(wire::EncodeTraceConfigRequest(req), &body, error)) {
    return false;
  }
  auto decoded = wire::DecodeTraceConfigResponse(body);
  if (!decoded.has_value()) {
    return Fail(error, "malformed TRACE_CONFIG_REPLY frame");
  }
  if (effective != nullptr) *effective = *decoded;
  return true;
}

bool BlockingClient::SendShutdown(std::string* error) {
  std::string body;
  if (!RoundTrip(wire::EncodeShutdownRequest(), &body, error)) return false;
  if (wire::PeekType(body) != wire::kShutdownReply) {
    return Fail(error, "malformed SHUTDOWN_REPLY frame");
  }
  return true;
}

}  // namespace roadnet
