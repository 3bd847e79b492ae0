// EventLoopPool in isolation: backpressure pause/resume, the
// StopAccepting drain barrier, idle reaping, and the connection gauges —
// driven by toy FrameHandlers so the tests see the loop mechanics
// without a QueryServer in the way.

#include "server/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/socket.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// Connects a fresh socket to 127.0.0.1:port; returns connect(2)'s result.
int ConnectLoopback(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

// Connects to 127.0.0.1:port, optionally pinning SO_RCVBUF before the
// handshake so the advertised window stays small (keeps the kernel from
// absorbing megabytes of replies and hiding the server's write queue).
ScopedFd RawConnect(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  EXPECT_EQ(ConnectLoopback(fd, port), 0);
  return ScopedFd(fd);
}

// Replies to every frame with `reply_bytes` of filler, inline from
// OnFrame (the path a loop-thread completion takes).
class BigReplyHandler : public FrameHandler {
 public:
  explicit BigReplyHandler(size_t reply_bytes) : reply_(reply_bytes, 'r') {}
  void BindPool(EventLoopPool* pool) { pool_ = pool; }

  bool OnFrame(const ConnRef& conn, std::string&&,
               const FrameMeta&) override {
    frames_.fetch_add(1);
    return pool_->Send(conn, reply_);
  }

  uint64_t Frames() const { return frames_.load(); }

 private:
  EventLoopPool* pool_ = nullptr;
  std::string reply_;
  std::atomic<uint64_t> frames_{0};
};

// Holds each frame inside OnFrame until the test releases it, then
// replies "re:<body>". It also records whether the frame was flagged as
// the connection's first and whether a stale ConnRef could Send.
class GatedHandler : public FrameHandler {
 public:
  void BindPool(EventLoopPool* pool) { pool_ = pool; }

  bool OnFrame(const ConnRef& conn, std::string&& body,
               const FrameMeta& meta) override {
    first_frame_ = meta.first_frame;
    ConnRef stale = conn;
    stale.generation += 1;
    stale_sent_ = pool_->Send(stale, "never");
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return pool_->Send(conn, "re:" + body);
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  bool FirstFrame() const { return first_frame_.load(); }
  bool StaleSent() const { return stale_sent_.load(); }

 private:
  EventLoopPool* pool_ = nullptr;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::atomic<bool> first_frame_{false};
  std::atomic<bool> stale_sent_{false};
};

TEST(EventLoopPool, BackpressurePausesReadsAndResumesAfterDrain) {
  constexpr size_t kReplyBytes = 256u << 10;
  BigReplyHandler handler(kReplyBytes);
  EventLoopOptions options;
  options.num_loops = 1;
  options.max_connections = 4;
  options.write_soft_cap = 16u << 10;
  options.sndbuf_bytes = 4096;  // kernel can't hide the queue
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd client = RawConnect(port, /*rcvbuf=*/4096);
  constexpr int kFrames = 5;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(WriteFrame(client.get(), "ping"));
  }

  // The first frame's 256K reply blows past the 16K soft cap, so the
  // loop must stop reading: exactly one frame handled, bytes pinned in
  // the write queue.
  for (int spin = 0; spin < 200 && pool.Stats().write_queue_bytes == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(pool.Stats().write_queue_bytes, 0u);
  EXPECT_EQ(handler.Frames(), 1u);

  // Draining the client side lets the queue empty; the loop resumes
  // reading and the remaining frames flow.
  for (int i = 0; i < kFrames; ++i) {
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(client.get(), &reply,
                          static_cast<uint32_t>(2 * kReplyBytes),
                          &clean_eof))
        << "reply " << i << (clean_eof ? " (eof)" : "");
    EXPECT_EQ(reply.size(), kReplyBytes);
  }
  EXPECT_EQ(handler.Frames(), static_cast<uint64_t>(kFrames));
  for (int spin = 0; spin < 200 && pool.Stats().write_queue_bytes != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.Stats().write_queue_bytes, 0u);

  pool.StopAccepting();
  pool.Stop();
}

TEST(EventLoopPool, StopAcceptingWaitsForTheFrameInHand) {
  GatedHandler handler;
  EventLoopOptions options;
  options.num_loops = 2;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd client = RawConnect(port);
  ASSERT_TRUE(WriteFrame(client.get(), "hello"));
  handler.WaitEntered();
  const uint64_t accepted = pool.Stats().accepted;
  EXPECT_EQ(accepted, 1u);

  // While a loop is still inside OnFrame, StopAccepting must not return.
  std::atomic<bool> stopped{false};
  std::thread stopper([&pool, &stopped] {
    pool.StopAccepting();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(stopped.load());

  // Once released, the frame is answered and StopAccepting returns.
  handler.Release();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  std::string reply;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(client.get(), &reply, 1024, &clean_eof));
  EXPECT_EQ(reply, "re:hello");
  EXPECT_TRUE(handler.FirstFrame());
  EXPECT_FALSE(handler.StaleSent());

  // The listening socket is closed: a new connect is refused, and no
  // loop accepted anything.
  ScopedFd late(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_NE(ConnectLoopback(late.get(), port), 0);
  EXPECT_EQ(pool.Stats().accepted, accepted);

  pool.Stop();
}

TEST(EventLoopPool, ReapsIdleConnectionsButNotActiveOnes) {
  BigReplyHandler handler(4);
  EventLoopOptions options;
  options.num_loops = 1;
  options.idle_timeout_ms = 100;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  ScopedFd idle = RawConnect(port);
  ScopedFd active = RawConnect(port);

  // Keep one connection talking for ~6 idle timeouts while the other
  // stays silent: only the silent one may be reaped.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(WriteFrame(active.get(), "tick"));
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(active.get(), &reply, 1024, &clean_eof));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The idle peer sees a clean close.
  const timeval tv{2, 0};
  ::setsockopt(idle.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[8];
  EXPECT_EQ(::recv(idle.get(), buf, sizeof(buf), 0), 0);

  const EventLoopPool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.idle_reaped, 1u);
  EXPECT_EQ(stats.open_connections, 1u);
  EXPECT_EQ(stats.accepted, 2u);

  pool.StopAccepting();
  pool.Stop();
}

TEST(EventLoopPool, GaugesTrackConnectionsPerLoop) {
  BigReplyHandler handler(4);
  EventLoopOptions options;
  options.num_loops = 2;
  options.max_connections = 8;
  EventLoopPool pool(options, &handler);
  handler.BindPool(&pool);
  std::string error;
  uint16_t port = 0;
  ScopedFd listen = ListenTcp(0, &port, &error);
  ASSERT_TRUE(listen.valid()) << error;
  ASSERT_TRUE(pool.Start(std::move(listen), &error)) << error;

  std::vector<ScopedFd> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(RawConnect(port));
    // One round trip pins the accept (EPOLLEXCLUSIVE may still be
    // parking the connection until its first readable event).
    ASSERT_TRUE(WriteFrame(clients.back().get(), "hi"));
    std::string reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(clients.back().get(), &reply, 64, &clean_eof));
  }

  const EventLoopPool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.open_connections, 6u);
  ASSERT_EQ(stats.loop_connections.size(), 2u);
  EXPECT_EQ(stats.loop_connections[0] + stats.loop_connections[1], 6u);

  clients.clear();  // hang up; the loops notice EOF
  for (int spin = 0; spin < 400 && pool.Stats().open_connections != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(pool.Stats().open_connections, 0u);

  pool.StopAccepting();
  pool.Stop();
}

}  // namespace
}  // namespace roadnet
