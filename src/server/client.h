#ifndef ROADNET_SERVER_CLIENT_H_
#define ROADNET_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "server/socket.h"
#include "server/wire.h"

namespace roadnet {

// Blocking client for the query service's wire protocol
// (server/wire.h), over one connection — the building block of the
// closed-loop load generator and the tests. Point queries are QUERY2
// frames: Query() is a pipeline of depth one, and Send()/Recv() let the
// caller keep many requests outstanding. Not thread-safe; use one
// client per thread.
class BlockingClient {
 public:
  // Connects to host:port; nullptr + *error on failure.
  static std::unique_ptr<BlockingClient> Connect(const std::string& host,
                                                 uint16_t port,
                                                 std::string* error);

  // Sends a QUERY2 frame and reads its reply. False on transport or
  // protocol failure (*error set), including a reply that echoes another
  // request_id; server-side rejections (OVERLOADED, DEADLINE_EXCEEDED,
  // ...) are successful round-trips reported in resp->status.
  bool Query(const wire::QueryRequest& req, wire::QueryResponse* resp,
             std::string* error);

  // Writes one QUERY2 frame (req.request_id is the correlation tag).
  // Does not wait for the reply.
  bool Send(const wire::QueryRequest& req, std::string* error);

  // Blocks for the next QUERY_REPLY2 frame, in whatever order the
  // server completed them. Match resp->request_id against your sends.
  // Collect every outstanding reply before any other request: the
  // methods below expect the next frame to be their own reply.
  bool Recv(wire::QueryResponse* resp, std::string* error);

  // Sends a KNN_QUERY frame and reads its reply. Same failure contract
  // as Query(); a short (or empty) entry list with kOk is a complete
  // answer.
  bool Knn(const wire::KnnRequest& req, wire::KnnResponse* resp,
           std::string* error);

  // Sends a ONE_TO_MANY_QUERY frame and reads its reply.
  bool OneToMany(const wire::OneToManyRequest& req, wire::KnnResponse* resp,
                 std::string* error);

  // Fetches the server's STATS snapshot.
  bool GetStats(wire::StatsResponse* stats, std::string* error);

  // Retunes the server's tracer (TRACE_CONFIG frame); *effective, if
  // non-null, receives the settings now in effect.
  bool ConfigureTracing(const wire::TraceConfigRequest& req,
                        wire::TraceConfigResponse* effective,
                        std::string* error);

  // Sends the admin SHUTDOWN frame and waits for the ack. The server
  // then drains: this and every other connection will be closed once
  // in-flight requests are answered.
  bool SendShutdown(std::string* error);

 private:
  explicit BlockingClient(ScopedFd fd) : fd_(std::move(fd)) {}

  // One frame each way; RoundTrip is a write then a read.
  bool Write(const std::string& body, std::string* error);
  bool Read(std::string* body, std::string* error);
  bool RoundTrip(const std::string& request, std::string* reply_body,
                 std::string* error);

  ScopedFd fd_;
};

}  // namespace roadnet

#endif  // ROADNET_SERVER_CLIENT_H_
