#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>

#include "util/rng.h"

namespace perfbench {

namespace {

// Wake this long before a scheduled send and busy-poll the rest: covers
// the timerfd wake-up latency, which is tens of microseconds.
constexpr uint64_t kSpinNs = 200'000;
// Outstanding-request table size (power of two).
constexpr uint64_t kSlots = 1u << 18;
constexpr size_t kReadChunk = 64 << 10;

void PutU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{static_cast<uint8_t>(p[i])} << (8 * i);
  return v;
}
void PutU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}
uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  return v;
}

// Message types whose body carries a u64 request_id right after the
// type byte: QUERY2 (13, echoed back by the echo peer) and QUERY_REPLY2
// (14). Values from server/wire.h.
bool CarriesRequestId(const std::string& body) {
  return body.size() >= 9 && (body[0] == 13 || body[0] == 14);
}

class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

int ConnectLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  std::unique_ptr<Fd> fd;
  std::string rbuf;
  size_t rpos = 0;
  std::string wbuf;  // bytes the socket did not take yet
  bool dead = false;
  bool want_out = false;
  std::deque<uint64_t> fifo;  // in-order matched requests (non-QUERY2)
};

struct Slot {
  bool used = false;
  uint32_t cls = 0;
  uint32_t conn = 0;
  uint32_t expect = 0;
  uint64_t start_ns = 0;  // scheduled time (open) or send time (closed)
  uint64_t sent_ns = 0;
};

struct ClassState {
  const ClassSpec* spec = nullptr;
  std::vector<size_t> conns;
  size_t next_pool = 0;
  size_t next_sched = 0;  // open loop
  size_t rr = 0;          // open loop round-robin cursor
  size_t outstanding = 0;
  ClassResult* out = nullptr;
};

class Driver {
 public:
  Driver(const std::vector<ClassSpec>& classes, SpanLog* spans)
      : classes_(classes), spans_(spans), slots_(kSlots) {}

  bool Open(uint16_t port, std::string* error) {
    epoll_fd_ = std::make_unique<Fd>(::epoll_create1(0));
    timer_fd_ = std::make_unique<Fd>(
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK));
    if (epoll_fd_->get() < 0 || timer_fd_->get() < 0) {
      *error = "epoll/timerfd create failed";
      return false;
    }
    epoll_event tev{};
    tev.events = EPOLLIN;
    tev.data.u64 = UINT64_MAX;
    ::epoll_ctl(epoll_fd_->get(), EPOLL_CTL_ADD, timer_fd_->get(), &tev);
    results_.resize(classes_.size());
    states_.resize(classes_.size());
    for (size_t c = 0; c < classes_.size(); ++c) {
      states_[c].spec = &classes_[c];
      states_[c].out = &results_[c];
      states_[c].next_pool = classes_[c].first;
      if (classes_[c].schedule_ns != nullptr) {
        // No reallocation while the schedule runs.
        const size_t n = classes_[c].schedule_ns->size();
        results_[c].latency_ns.reserve(n);
        results_[c].send_lag_ns.reserve(n);
        results_[c].server_ns.reserve(n);
        results_[c].transport_ns.reserve(n);
      }
      for (size_t i = 0; i < classes_[c].connections; ++i) {
        const int fd = ConnectLoopback(port, error);
        if (fd < 0) return false;
        Conn conn;
        conn.fd = std::make_unique<Fd>(fd);
        conn.rbuf.resize(kReadChunk);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conns_.size();
        ::epoll_ctl(epoll_fd_->get(), EPOLL_CTL_ADD, fd, &ev);
        states_[c].conns.push_back(conns_.size());
        conns_.push_back(std::move(conn));
      }
    }
    return true;
  }

  std::vector<ClassResult> Run(uint64_t duration_ns, uint64_t drain_ns) {
    start_ns_ = NowNs();
    const uint64_t end_ns = start_ns_ + duration_ns;
    // Closed-loop classes fill their pipelines.
    for (size_t c = 0; c < states_.size(); ++c) {
      if (states_[c].spec->schedule_ns != nullptr) continue;
      for (size_t ci : states_[c].conns) {
        for (size_t d = 0; d < states_[c].spec->depth; ++d) {
          Send(c, ci, 0);
        }
      }
    }
    sending_ = true;
    while (true) {
      uint64_t now = NowNs();
      if (sending_ && now >= end_ns) sending_ = false;
      if (sending_) now = SendDue(now);
      if (!sending_ && outstanding_ == 0) break;
      if (!sending_ && now >= end_ns + drain_ns) break;
      // Next deadline: the earliest scheduled send, else the phase end.
      uint64_t wake = sending_ ? end_ns : end_ns + drain_ns;
      if (sending_) wake = std::min(wake, NextDue());
      int timeout_ms = 0;
      if (wake > now + kSpinNs) {
        ArmTimer(wake - kSpinNs);
        timeout_ms = -1;
      }
      Poll(timeout_ms);
    }
    const uint64_t stop_ns = NowNs();
    // Whatever is still outstanding was never answered.
    for (Slot& s : slots_) {
      if (!s.used) continue;
      s.used = false;
      ClassResult& r = results_[s.cls];
      ++r.unanswered;
      r.latency_ns.push_back(kFailedNs);
    }
    for (size_t c = 0; c < results_.size(); ++c) {
      results_[c].seconds = static_cast<double>(std::min(stop_ns, end_ns) -
                                                start_ns_) * 1e-9;
    }
    return std::move(results_);
  }

 private:
  static bool AtLimit(const ClassState& st) {
    return st.spec->max_outstanding != 0 &&
           st.outstanding >= st.spec->max_outstanding;
  }

  // Sends every open-loop request whose time has come; returns the clock.
  uint64_t SendDue(uint64_t now) {
    for (size_t c = 0; c < states_.size(); ++c) {
      ClassState& st = states_[c];
      const std::vector<uint64_t>* sched = st.spec->schedule_ns;
      if (sched == nullptr) continue;
      while (st.next_sched < sched->size() && !AtLimit(st) &&
             start_ns_ + (*sched)[st.next_sched] <= now) {
        const uint64_t due = start_ns_ + (*sched)[st.next_sched++];
        const size_t ci = st.conns[st.rr++ % st.conns.size()];
        Send(c, ci, due);
        now = NowNs();
      }
    }
    return now;
  }

  uint64_t NextDue() const {
    uint64_t best = UINT64_MAX;
    for (const ClassState& st : states_) {
      const std::vector<uint64_t>* sched = st.spec->schedule_ns;
      // A class at its limit waits for a reply, not for the clock.
      if (sched == nullptr || st.next_sched >= sched->size() ||
          AtLimit(st)) {
        continue;
      }
      best = std::min(best, start_ns_ + (*sched)[st.next_sched]);
    }
    return best;
  }

  void ArmTimer(uint64_t at_ns) {
    itimerspec its{};
    its.it_value.tv_sec = static_cast<time_t>(at_ns / 1'000'000'000);
    its.it_value.tv_nsec = static_cast<long>(at_ns % 1'000'000'000);
    ::timerfd_settime(timer_fd_->get(), TFD_TIMER_ABSTIME, &its, nullptr);
  }

  // `scheduled` is the open-loop due time (0 for closed loop).
  void Send(size_t c, size_t ci, uint64_t scheduled) {
    ClassState& st = states_[c];
    ClassResult& r = *st.out;
    Conn& conn = conns_[ci];
    const std::vector<PoolEntry>& pool = *st.spec->pool;
    const PoolEntry& e = pool[st.next_pool++ % pool.size()];
    ++r.attempted;
    if (conn.dead) {
      ++r.transport_errors;
      r.latency_ns.push_back(kFailedNs);
      return;
    }
    const uint64_t seq = next_seq_++;
    Slot& slot = slots_[seq & (kSlots - 1)];
    if (slot.used) {  // table wrapped: the old request never came back
      ++results_[slot.cls].unanswered;
      results_[slot.cls].latency_ns.push_back(kFailedNs);
      --outstanding_;
      --states_[slot.cls].outstanding;
    }
    slot.used = true;
    slot.cls = static_cast<uint32_t>(c);
    slot.conn = static_cast<uint32_t>(ci);
    slot.expect = e.expect;
    ++outstanding_;
    ++st.outstanding;
    if (!e.v2) conn.fifo.push_back(seq);
    frame_ = e.frame;
    if (e.v2) PutU64(frame_.data() + 5, seq);
    const uint64_t sent = NowNs();
    slot.start_ns = scheduled != 0 ? scheduled : sent;
    slot.sent_ns = sent;
    if (scheduled != 0) {
      r.send_lag_ns.push_back(SendLagNs(scheduled, sent));
      if (spans_ != nullptr) {
        spans_->Add({seq, "loadgen.send_lag", "client", scheduled, sent});
      }
    }
    Write(ci, frame_.data(), frame_.size());
  }

  void Write(size_t ci, const char* data, size_t size) {
    Conn& conn = conns_[ci];
    if (conn.wbuf.empty()) {
      const ssize_t n = ::send(conn.fd->get(), data, size, MSG_NOSIGNAL);
      if (n == static_cast<ssize_t>(size)) return;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        Kill(ci);
        return;
      }
      const size_t done = n > 0 ? static_cast<size_t>(n) : 0;
      conn.wbuf.append(data + done, size - done);
    } else {
      conn.wbuf.append(data, size);
    }
    if (!conn.want_out) {
      conn.want_out = true;
      Rearm(ci);
    }
  }

  void Rearm(size_t ci) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conns_[ci].want_out ? uint32_t{EPOLLOUT} : 0u);
    ev.data.u64 = ci;
    ::epoll_ctl(epoll_fd_->get(), EPOLL_CTL_MOD, conns_[ci].fd->get(), &ev);
  }

  void Flush(size_t ci) {
    Conn& conn = conns_[ci];
    while (!conn.wbuf.empty()) {
      const ssize_t n = ::send(conn.fd->get(), conn.wbuf.data(),
                               conn.wbuf.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        Kill(ci);
        return;
      }
      conn.wbuf.erase(0, static_cast<size_t>(n));
    }
    conn.want_out = false;
    Rearm(ci);
  }

  // A lost connection fails everything outstanding on it.
  void Kill(size_t ci) {
    Conn& conn = conns_[ci];
    if (conn.dead) return;
    conn.dead = true;
    ::epoll_ctl(epoll_fd_->get(), EPOLL_CTL_DEL, conn.fd->get(), nullptr);
    for (Slot& s : slots_) {
      if (!s.used || s.conn != ci) continue;
      s.used = false;
      ++results_[s.cls].transport_errors;
      results_[s.cls].latency_ns.push_back(kFailedNs);
      --outstanding_;
      --states_[s.cls].outstanding;
    }
    conn.fifo.clear();
  }

  void Poll(int timeout_ms) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_->get(), events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == UINT64_MAX) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_->get(), &expirations, sizeof(expirations));
        continue;
      }
      if (events[i].events & EPOLLOUT) Flush(id);
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) Read(id);
      // A due send does not wait behind the rest of the ready replies.
      if (sending_) SendDue(NowNs());
    }
  }

  void Read(size_t ci) {
    Conn& conn = conns_[ci];
    while (!conn.dead) {
      if (conn.rbuf.size() - conn.rpos < kReadChunk / 2) {
        conn.rbuf.resize(conn.rpos + kReadChunk);
      }
      const ssize_t n = ::recv(conn.fd->get(), conn.rbuf.data() + conn.rpos,
                               conn.rbuf.size() - conn.rpos, 0);
      if (n == 0) {
        Kill(ci);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Kill(ci);
        return;
      }
      const bool more = static_cast<size_t>(n) == conn.rbuf.size() - conn.rpos;
      conn.rpos += static_cast<size_t>(n);
      const uint64_t now = NowNs();
      size_t off = 0;
      while (conn.rpos - off >= 4) {
        const uint32_t len = GetU32(conn.rbuf.data() + off);
        if (conn.rpos - off - 4 < len) break;
        body_.assign(conn.rbuf.data() + off + 4, len);
        OnReply(ci, body_, len + 4, now);
        off += 4 + len;
      }
      if (off > 0) {
        std::memmove(conn.rbuf.data(), conn.rbuf.data() + off,
                     conn.rpos - off);
        conn.rpos -= off;
      }
      // A short read drained the socket; level-triggered epoll reports
      // anything that arrives later, so skip the EAGAIN round trip.
      if (!more) break;
    }
  }

  void OnReply(size_t ci, const std::string& body, size_t frame_bytes,
               uint64_t now) {
    Conn& conn = conns_[ci];
    uint64_t seq = 0;
    if (CarriesRequestId(body)) {
      seq = GetU64(body.data() + 1);
    } else if (!conn.fifo.empty()) {
      seq = conn.fifo.front();
      conn.fifo.pop_front();
    } else {
      Kill(ci);  // a reply nobody asked for: the stream is out of step
      return;
    }
    Slot& slot = slots_[seq & (kSlots - 1)];
    if (!slot.used || slot.conn != ci) {
      Kill(ci);
      return;
    }
    slot.used = false;
    --outstanding_;
    ClassState& st = states_[slot.cls];
    --st.outstanding;
    ClassResult& r = *st.out;
    ++r.replies;
    r.reply_bytes += frame_bytes;
    const ReplyCheck verdict = st.spec->check(slot.expect, body);
    if (!verdict.ok_status) {
      ++r.bad_status;
      r.latency_ns.push_back(kFailedNs);
    } else if (!verdict.correct) {
      ++r.wrong;
      r.latency_ns.push_back(kFailedNs);
    } else {
      ++r.ok;
      r.latency_ns.push_back(OpenLoopLatencyNs(slot.start_ns, now));
      r.server_ns.push_back(verdict.server_ns);
      r.transport_ns.push_back(TransportNs(now - slot.sent_ns,
                                           verdict.server_ns));
    }
    if (spans_ != nullptr) {
      spans_->Add({seq, st.spec->name, "", slot.start_ns, now});
      if (verdict.server_ns > 0 && verdict.server_ns <= now - slot.sent_ns) {
        spans_->Add({seq, "server.residence", st.spec->name,
                     now - verdict.server_ns, now});
      }
    }
    // Closed loop: the reply frees a slot on this connection.
    if (sending_ && st.spec->schedule_ns == nullptr) {
      Send(slot.cls, ci, 0);
    }
  }

  const std::vector<ClassSpec>& classes_;
  SpanLog* spans_;
  std::unique_ptr<Fd> epoll_fd_;
  std::unique_ptr<Fd> timer_fd_;
  std::vector<Conn> conns_;
  std::vector<ClassState> states_;
  std::vector<ClassResult> results_;
  std::vector<Slot> slots_;
  uint64_t next_seq_ = 1;
  uint64_t outstanding_ = 0;
  uint64_t start_ns_ = 0;
  bool sending_ = false;
  std::string frame_;
  std::string body_;
};

}  // namespace

uint64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

PoolEntry MakeEntry(const std::string& body, bool v2, uint32_t expect) {
  PoolEntry e;
  e.frame.resize(4);
  PutU32(e.frame.data(), static_cast<uint32_t>(body.size()));
  e.frame += body;
  e.v2 = v2;
  e.expect = expect;
  return e;
}

std::vector<ClassResult> RunPhase(uint16_t port,
                                  const std::vector<ClassSpec>& classes,
                                  uint64_t duration_ns, uint64_t drain_ns,
                                  SpanLog* spans, std::string* error) {
  Driver driver(classes, spans);
  if (!driver.Open(port, error)) return {};
  return driver.Run(duration_ns, drain_ns);
}

std::vector<uint64_t> PoissonSchedule(double rate, uint64_t duration_ns,
                                      uint64_t seed) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(rate * 1e-9 * duration_ns * 1.1) + 16);
  roadnet::Rng rng(seed);
  double t = 0;
  const double mean_gap_ns = 1e9 / rate;
  while (true) {
    // Exponential gap; 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) break;
    out.push_back(static_cast<uint64_t>(t) + 1);  // 0 is reserved
  }
  return out;
}

EchoServer::EchoServer() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { Serve(); });
}

EchoServer::~EchoServer() {
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void EchoServer::Serve() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<char> buf(kReadChunk);
  while (true) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;
    ssize_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, buf.data() + off, static_cast<size_t>(n - off),
                               MSG_NOSIGNAL);
      if (w <= 0) break;
      off += w;
    }
    if (off < n) break;
  }
  ::close(fd);
}

}  // namespace perfbench
