#include "server/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace roadnet {

namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

// The protocol is request-reply with small frames; Nagle would add 40ms
// stalls between a request and its reply on some stacks.
void DisableNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void ScopedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ScopedFd ListenTcp(uint16_t port, uint16_t* actual_port, std::string* error) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return {};
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    SetError(error, "bind");
    return {};
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    SetError(error, "listen");
    return {};
  }
  if (actual_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      SetError(error, "getsockname");
      return {};
    }
    *actual_port = ntohs(addr.sin_port);
  }
  return fd;
}

ScopedFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error, int rcvbuf_bytes) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return {};
  }
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid host address '" + host + "'";
    return {};
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    SetError(error, "connect to " + host + ":" + std::to_string(port));
    return {};
  }
  DisableNagle(fd.get());
  return fd;
}

bool WriteFull(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not process death.
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadFullOrEof(int fd, void* data, size_t size, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      if (clean_eof != nullptr && got == 0) *clean_eof = true;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t size) {
  return ReadFullOrEof(fd, data, size, nullptr);
}

bool WriteFrame(int fd, const std::string& body) {
  const uint32_t len = static_cast<uint32_t>(body.size());
  char header[4];
  std::memcpy(header, &len, sizeof(len));
  return WriteFull(fd, header, sizeof(header)) &&
         WriteFull(fd, body.data(), body.size());
}

bool WriteFrames(int fd, const std::vector<std::string>& bodies) {
  std::string out;
  for (const std::string& body : bodies) {
    const uint32_t len = static_cast<uint32_t>(body.size());
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out.append(body);
  }
  return WriteFull(fd, out.data(), out.size());
}

bool ReadFrame(int fd, std::string* body, uint32_t max_body,
               bool* clean_eof) {
  uint32_t len = 0;
  if (!ReadFullOrEof(fd, &len, sizeof(len), clean_eof)) return false;
  if (len > max_body) return false;
  body->resize(len);
  return len == 0 || ReadFull(fd, body->data(), len);
}

}  // namespace roadnet
