#include "server/openloop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>

#include "server/event_loop.h"
#include "server/socket.h"
#include "util/rng.h"

namespace roadnet {

namespace {

// epoll tag of the arrival timer; connection indexes are the other tags.
constexpr uint64_t kTimerTag = ~uint64_t{0};

// Wake this long before an arrival and busy-poll the rest: the timerfd
// wake-up itself is late by tens of microseconds on a loaded VM.
constexpr uint64_t kSpinNs = 200'000;

uint64_t MonotonicNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// One pre-generated request: its scheduled arrival (ns since run start)
// and endpoints. Latency is measured from sched_ns, never from the send.
struct ReqRecord {
  uint64_t sched_ns = 0;
  uint32_t source = 0;
  uint32_t target = 0;
};

struct ClientConn {
  ScopedFd fd;
  FrameAssembler assembler;
  std::deque<uint64_t> deferred;  // scheduled, waiting for a pipeline slot
  size_t outstanding = 0;
  std::string out;
  size_t out_head = 0;
  bool want_out = false;  // EPOLLOUT currently armed
  bool dead = false;
};

class OpenLoopDriver {
 public:
  explicit OpenLoopDriver(const OpenLoopOptions& options)
      : options_(options) {}
  ~OpenLoopDriver() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  OpenLoopResult Run();

 private:
  // Nanoseconds since the schedule's start, on CLOCK_MONOTONIC (the
  // timerfd's clock).
  uint64_t NowNs() const { return MonotonicNs() - epoch_ns_; }

  // Arms the arrival timer at `at_ns` on the schedule's axis (absolute,
  // so a late arm cannot push the wake-up later). A repeat arm for the
  // same time is skipped: that timer has not fired yet, because once it
  // fires its request is due within the spin window and is polled for.
  void ArmTimer(uint64_t at_ns) {
    if (at_ns == armed_ns_) return;
    armed_ns_ = at_ns;
    const uint64_t abs_ns = epoch_ns_ + at_ns;
    itimerspec its{};
    its.it_value.tv_sec = static_cast<time_t>(abs_ns / 1'000'000'000);
    its.it_value.tv_nsec = static_cast<long>(abs_ns % 1'000'000'000);
    ::timerfd_settime(timer_fd_.get(), TFD_TIMER_ABSTIME, &its, nullptr);
  }

  bool Fail(const std::string& why) {
    if (result_.error.empty()) result_.error = why;
    return false;
  }

  bool ConnectAll();
  // One STATS round trip per connection before the clock starts: the
  // server's accept/registration work (a storm at 10k connections) must
  // not be billed to the first scheduled arrivals.
  bool PrimeAll();
  void BuildSchedule();
  // Moves deferred requests into the wire while pipeline slots are free.
  void Pump(size_t ci);
  void FlushOut(size_t ci);
  void SetWantOut(size_t ci, bool want);
  void OnReadable(size_t ci);
  void KillConn(size_t ci, const char* why);

  const OpenLoopOptions options_;
  uint64_t epoch_ns_ = 0;  // CLOCK_MONOTONIC at the schedule's start
  int epoll_fd_ = -1;
  ScopedFd timer_fd_;
  uint64_t armed_ns_ = 0;  // schedule time the timer is armed for
  std::vector<ClientConn> conns_;
  std::vector<ReqRecord> reqs_;
  uint64_t next_idx_ = 0;   // next request not yet handed to a connection
  uint64_t lost_ = 0;       // scheduled but unanswerable (connection died)
  uint64_t primed_ = 0;     // priming STATS replies seen
  size_t alive_conns_ = 0;
  OpenLoopResult result_;
};

bool OpenLoopDriver::ConnectAll() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Fail("epoll_create1 failed");
  timer_fd_ = ScopedFd(
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerTag;
  if (!timer_fd_.valid() ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_.get(), &tev) != 0) {
    return Fail("timerfd setup failed");
  }
  conns_.resize(options_.connections);
  for (size_t i = 0; i < options_.connections; ++i) {
    std::string err;
    ClientConn& c = conns_[i];
    c.fd = ConnectTcp(options_.host, options_.port, &err);
    if (!c.fd.valid()) {
      return Fail("connect " + std::to_string(i) + ": " + err);
    }
    const int flags = ::fcntl(c.fd.get(), F_GETFL, 0);
    ::fcntl(c.fd.get(), F_SETFL, flags | O_NONBLOCK);
    int one = 1;
    ::setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd.get(), &ev) != 0) {
      return Fail("epoll_ctl ADD failed");
    }
  }
  alive_conns_ = options_.connections;
  return true;
}

bool OpenLoopDriver::PrimeAll() {
  const std::string stats = wire::EncodeStatsRequest();
  const uint32_t len = static_cast<uint32_t>(stats.size());
  char prefix[4];
  std::memcpy(prefix, &len, 4);
  for (size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].out.append(prefix, 4);
    conns_[i].out.append(stats);
    FlushOut(i);
  }
  epoll_event events[256];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (primed_ < alive_conns_) {
    if (alive_conns_ == 0) return Fail("all connections died while priming");
    if (std::chrono::steady_clock::now() > deadline) {
      return Fail("priming stalled: server never answered STATS");
    }
    const int n = ::epoll_wait(epoll_fd_, events, 256, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail("epoll_wait failed while priming");
    }
    for (int i = 0; i < n; ++i) {
      const size_t ci = static_cast<size_t>(events[i].data.u64);
      if (conns_[ci].dead) continue;
      if ((events[i].events & EPOLLOUT) != 0) FlushOut(ci);
      if (!conns_[ci].dead &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        OnReadable(ci);
      }
    }
  }
  return true;
}

void OpenLoopDriver::BuildSchedule() {
  Rng rng(options_.seed);
  reqs_.resize(options_.total_requests);
  const double rate = options_.rate > 0 ? options_.rate : 1.0;
  double t_ns = 0.0;
  for (uint64_t i = 0; i < options_.total_requests; ++i) {
    double gap_s;
    if (options_.poisson) {
      // Exponential inter-arrival gaps; clamp the log argument away
      // from 0 so a NextDouble() of ~1.0 cannot produce an inf gap.
      double u = 1.0 - rng.NextDouble();
      if (u < 1e-12) u = 1e-12;
      gap_s = -std::log(u) / rate;
    } else {
      gap_s = 1.0 / rate;
    }
    t_ns += gap_s * 1e9;
    reqs_[i].sched_ns = static_cast<uint64_t>(t_ns);
    reqs_[i].source = rng.NextBelow(options_.num_vertices);
    reqs_[i].target = rng.NextBelow(options_.num_vertices);
  }
}

void OpenLoopDriver::SetWantOut(size_t ci, bool want) {
  ClientConn& c = conns_[ci];
  if (c.want_out == want || c.dead) return;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u64 = ci;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd.get(), &ev);
  c.want_out = want;
}

void OpenLoopDriver::Pump(size_t ci) {
  ClientConn& c = conns_[ci];
  if (c.dead) return;
  // Everything appended here goes to the kernel in the FlushOut below.
  const uint64_t now = NowNs();
  while (c.outstanding < options_.pipeline && !c.deferred.empty()) {
    const uint64_t idx = c.deferred.front();
    c.deferred.pop_front();
    wire::QueryRequest req;
    req.request_id = idx;
    req.technique = options_.technique;
    req.kind = options_.kind;
    req.source = reqs_[idx].source;
    req.target = reqs_[idx].target;
    req.deadline_micros = options_.deadline_micros;
    const std::string body = wire::EncodeQueryRequestV2(req);
    const uint32_t len = static_cast<uint32_t>(body.size());
    char prefix[4];
    std::memcpy(prefix, &len, 4);
    c.out.append(prefix, 4);
    c.out.append(body);
    c.outstanding++;
    result_.sent++;
    const uint64_t sched = reqs_[idx].sched_ns;
    result_.send_lag.Record(now > sched ? now - sched : 0);
  }
  FlushOut(ci);
}

void OpenLoopDriver::FlushOut(size_t ci) {
  ClientConn& c = conns_[ci];
  if (c.dead) return;
  while (c.out_head < c.out.size()) {
    const ssize_t n =
        ::send(c.fd.get(), c.out.data() + c.out_head,
               c.out.size() - c.out_head, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_head += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetWantOut(ci, true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    KillConn(ci, "send failed");
    return;
  }
  c.out.clear();
  c.out_head = 0;
  SetWantOut(ci, false);
}

void OpenLoopDriver::OnReadable(size_t ci) {
  ClientConn& c = conns_[ci];
  char buf[16 * 1024];
  while (!c.dead) {
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      c.assembler.Feed(buf, static_cast<size_t>(n));
      std::string body;
      for (;;) {
        const FrameAssembler::Result r = c.assembler.Next(&body);
        if (r == FrameAssembler::Result::kNeedMore) break;
        if (r == FrameAssembler::Result::kError) {
          KillConn(ci, "oversized reply frame");
          return;
        }
        if (wire::PeekType(body) == wire::MessageType::kStatsReply) {
          ++primed_;  // reply to the priming STATS round trip
          continue;
        }
        auto resp = wire::DecodeQueryResponseV2(body);
        if (!resp.has_value()) {
          KillConn(ci, "malformed QUERY_REPLY2 frame");
          return;
        }
        const uint64_t idx = resp->request_id;
        if (idx >= reqs_.size()) {
          KillConn(ci, "reply for unknown request_id");
          return;
        }
        const uint64_t now = NowNs();
        const uint64_t sched = reqs_[idx].sched_ns;
        result_.latency.Record(now > sched ? now - sched : 0);
        result_.status_counts[static_cast<uint8_t>(resp->status)]++;
        result_.received++;
        if (options_.verify_every > 0 && idx % options_.verify_every == 0) {
          result_.samples.push_back({reqs_[idx].source, reqs_[idx].target,
                                     resp->distance,
                                     static_cast<uint8_t>(resp->status)});
        }
        if (c.outstanding > 0) c.outstanding--;
      }
      Pump(ci);
      continue;
    }
    if (n == 0) {
      KillConn(ci, "server closed the connection");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    KillConn(ci, "recv failed");
    return;
  }
}

void OpenLoopDriver::KillConn(size_t ci, const char* why) {
  ClientConn& c = conns_[ci];
  if (c.dead) return;
  c.dead = true;
  // Everything in flight or queued on this connection will never be
  // answered; count it as lost so the run can still terminate.
  lost_ += c.outstanding + c.deferred.size();
  c.outstanding = 0;
  c.deferred.clear();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd.get(), nullptr);
  c.fd.Close();
  result_.connection_errors++;
  if (alive_conns_ > 0) alive_conns_--;
  if (result_.error.empty()) result_.error = why;
}

OpenLoopResult OpenLoopDriver::Run() {
  result_.offered_qps = options_.rate;
  if (options_.connections == 0 || options_.total_requests == 0 ||
      options_.num_vertices == 0 || options_.pipeline == 0) {
    Fail("invalid open-loop options");
    return std::move(result_);
  }
  if (!ConnectAll()) return std::move(result_);
  if (!PrimeAll()) return std::move(result_);
  BuildSchedule();
  epoch_ns_ = MonotonicNs();

  epoll_event events[256];
  uint64_t last_progress_ns = 0;
  while (result_.received + lost_ < options_.total_requests) {
    if (alive_conns_ == 0) {
      Fail("all connections dead");
      break;
    }
    const uint64_t now = NowNs();
    // Admit every request whose scheduled arrival has passed. Round
    // robin across connections; a full pipeline just defers the send —
    // the schedule stamp is already fixed.
    while (next_idx_ < options_.total_requests &&
           reqs_[next_idx_].sched_ns <= now) {
      size_t ci = static_cast<size_t>(next_idx_ % conns_.size());
      for (size_t probe = 0; probe < conns_.size() && conns_[ci].dead;
           ++probe) {
        ci = (ci + 1) % conns_.size();
      }
      if (conns_[ci].dead) break;  // alive_conns_ check handles it above
      conns_[ci].deferred.push_back(next_idx_);
      ++next_idx_;
      Pump(ci);
    }

    // Sleep until just before the next arrival (the timerfd wakes the
    // wait), then poll without blocking until it is due. The 100 ms cap
    // keeps the stall check below running.
    int timeout_ms = 100;
    if (next_idx_ < options_.total_requests) {
      const uint64_t due = reqs_[next_idx_].sched_ns;
      if (due > now + kSpinNs) {
        ArmTimer(due - kSpinNs);
      } else {
        timeout_ms = 0;
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail("epoll_wait failed");
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kTimerTag) {
        uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(timer_fd_.get(), &expirations, sizeof(expirations));
        continue;
      }
      const size_t ci = static_cast<size_t>(events[i].data.u64);
      if (conns_[ci].dead) continue;
      if ((events[i].events & EPOLLOUT) != 0) FlushOut(ci);
      if (!conns_[ci].dead &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        OnReadable(ci);
      }
    }
    if (n > 0) {
      last_progress_ns = NowNs();
    } else if (next_idx_ >= options_.total_requests &&
               NowNs() - last_progress_ns > 15ull * 1000 * 1000 * 1000) {
      Fail("stalled: no replies for 15s after the last send");
      break;
    }
  }

  // Abortive close (RST, no TIME_WAIT): every reply is already in, and a
  // connection-scale sweep would otherwise park tens of thousands of
  // ephemeral ports in TIME_WAIT between measurement points.
  for (ClientConn& c : conns_) {
    if (c.fd.valid()) {
      const linger lg{1, 0};
      ::setsockopt(c.fd.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      c.fd.Close();
    }
  }

  result_.elapsed_ns = NowNs();
  if (result_.elapsed_ns > 0) {
    result_.achieved_qps =
        static_cast<double>(result_.received) * 1e9 /
        static_cast<double>(result_.elapsed_ns);
  }
  result_.ok = result_.received == options_.total_requests &&
               result_.error.empty();
  return std::move(result_);
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options) {
  OpenLoopDriver driver(options);
  return driver.Run();
}

}  // namespace roadnet
