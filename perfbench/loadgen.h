#ifndef ROADNET_PERFBENCH_LOADGEN_H_
#define ROADNET_PERFBENCH_LOADGEN_H_

// The benchmark's own load generator: one thread, one epoll set, any mix
// of closed-loop and open-loop request classes over loopback TCP.
//
// Open-loop classes send on a precomputed arrival schedule. The thread
// sleeps on a timerfd armed at an absolute CLOCK_MONOTONIC deadline a
// little before the next arrival and busy-polls the rest of the way, so
// requests leave within a few microseconds of their scheduled time. Each
// open-loop request is timed from its scheduled time, and how late it
// actually left (send lag) is recorded beside it.
//
// Requests are prebuilt frames from a caller's pool. QUERY2 frames are
// matched to replies by request_id; other frames are matched in order
// on their connection, so classes that send them run at depth 1.

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

// CLOCK_MONOTONIC in nanoseconds (the clock the timerfd and
// std::chrono::steady_clock use).
uint64_t NowNs();

// One request of a pool: the whole frame, length prefix included.
struct PoolEntry {
  std::string frame;
  // QUERY2 frame: the driver writes a fresh request_id into body bytes
  // [1, 9) before each send and matches the reply by it.
  bool v2 = false;
  // The caller's handle on the expected answer, passed to the Checker.
  uint32_t expect = 0;
};

// Builds a PoolEntry from a frame body (adds the length prefix).
PoolEntry MakeEntry(const std::string& body, bool v2, uint32_t expect);

// Verdict on one reply body.
struct ReplyCheck {
  bool ok_status = false;  // an answer, not a shed or error status
  bool correct = false;    // the answer equals the expected one
  uint64_t server_ns = 0;  // the reply's server_latency_ns (0 if none)
};
using Checker =
    std::function<ReplyCheck(uint32_t expect, const std::string& body)>;

struct ClassSpec {
  const char* name = "";
  const std::vector<PoolEntry>* pool = nullptr;
  size_t first = 0;         // pool position of the class's first request
  size_t connections = 1;
  // Closed loop: requests outstanding per connection (>= 1). Ignored when
  // `schedule_ns` is set.
  size_t depth = 1;
  // Open loop: arrival times in ns from the phase start, ascending,
  // spread round-robin over the connections.
  const std::vector<uint64_t>* schedule_ns = nullptr;
  // Open loop: at most this many requests of the class outstanding at
  // once (0 = no limit). A due request then waits for a reply and is
  // still timed from its schedule, so a stall shows as latency; the
  // limit keeps the backlog below the server's admission queue, which
  // would shed it.
  size_t max_outstanding = 0;
  Checker check;
};

// Everything measured for one class over one phase. Latencies are in ns,
// one per attempted request; a failed request holds kFailedNs.
struct ClassResult {
  std::vector<uint64_t> latency_ns;
  std::vector<int64_t> send_lag_ns;      // open loop only
  std::vector<uint64_t> server_ns;       // answered requests
  std::vector<double> transport_ns;      // rtt - server_ns, answered
  uint64_t attempted = 0;
  uint64_t ok = 0;                 // answered and correct
  uint64_t transport_errors = 0;   // connection lost or refused
  uint64_t bad_status = 0;         // shed or error status
  uint64_t wrong = 0;              // answered, but not the expected answer
  uint64_t unanswered = 0;         // no reply before the drain deadline
  uint64_t reply_bytes = 0;        // frame bytes of all replies
  uint64_t replies = 0;
  double seconds = 0;              // phase length, for rates

  uint64_t Failed() const {
    return transport_errors + bad_status + wrong + unanswered;
  }
};

// One span of the in-memory trace the benchmark writes out at exit.
struct Span {
  uint64_t trace_id = 0;
  const char* name = "";
  const char* parent = "";  // "" for a root span
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Spans kept in memory up to a cap; later ones are not kept.
struct SpanLog {
  size_t cap = 0;
  std::vector<Span> spans;

  void Add(const Span& s) {
    if (spans.size() < cap) spans.push_back(s);
  }
};

// Runs every class at once against 127.0.0.1:port for `duration_ns`,
// then waits up to `drain_ns` for outstanding replies. With `spans`
// non-null, records a client span per request, the reply's server time
// as its child, and open-loop send lag. Returns one result per class;
// *error is set if a connection could not be opened.
std::vector<ClassResult> RunPhase(uint16_t port,
                                  const std::vector<ClassSpec>& classes,
                                  uint64_t duration_ns, uint64_t drain_ns,
                                  SpanLog* spans, std::string* error);

// Poisson arrivals at `rate` per second over `duration_ns`.
std::vector<uint64_t> PoissonSchedule(double rate, uint64_t duration_ns,
                                      uint64_t seed);

// A trivial echo peer for the harness floor: accepts one connection on
// an ephemeral loopback port and writes every frame straight back until
// the peer hangs up. The destructor closes the listener and joins.
class EchoServer {
 public:
  EchoServer();
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  bool ok() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }

 private:
  void Serve();

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // ROADNET_PERFBENCH_LOADGEN_H_
