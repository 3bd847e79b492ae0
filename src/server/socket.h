#ifndef ROADNET_SERVER_SOCKET_H_
#define ROADNET_SERVER_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace roadnet {

// Thin RAII + framing layer over POSIX TCP sockets: the listen socket
// the event loops accept from, and the blocking connect/read/write calls
// of the client and the tests.

// Owns a file descriptor; closes it on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Close(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.Release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() { return std::exchange(fd_, -1); }
  void Close();

 private:
  int fd_ = -1;
};

// Creates a listening TCP socket bound to `port` on all interfaces
// (port 0 picks an ephemeral port; *actual_port reports the choice).
// Invalid ScopedFd + *error on failure.
ScopedFd ListenTcp(uint16_t port, uint16_t* actual_port, std::string* error);

// Blocking connect to host:port. Invalid ScopedFd + *error on failure.
// rcvbuf_bytes > 0 pins SO_RCVBUF before the handshake, keeping the
// advertised window small so the kernel cannot absorb unread replies.
ScopedFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error, int rcvbuf_bytes = 0);

// Blocking exact-count read/write (retries on EINTR and partial
// transfers; writes suppress SIGPIPE). ReadFull returns false on EOF or
// error; ReadFullOrEof additionally distinguishes a clean EOF before the
// first byte (*clean_eof), which is how a peer hangs up between frames.
bool WriteFull(int fd, const void* data, size_t size);
bool ReadFull(int fd, void* data, size_t size);
bool ReadFullOrEof(int fd, void* data, size_t size, bool* clean_eof);

// Frame transport: [u32 length][body] with bodies capped at `max_body`.
// ReadFrame returns false on EOF, error, or an oversized length;
// *clean_eof (optional) reports a clean between-frames hangup.
bool WriteFrame(int fd, const std::string& body);
bool ReadFrame(int fd, std::string* body, uint32_t max_body,
               bool* clean_eof = nullptr);

// Writes every frame with one write, so a loopback peer reads them as one
// pipelined burst.
bool WriteFrames(int fd, const std::vector<std::string>& bodies);

}  // namespace roadnet

#endif  // ROADNET_SERVER_SOCKET_H_
