#ifndef ROADNET_IO_BINARY_H_
#define ROADNET_IO_BINARY_H_

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

namespace roadnet {

// Minimal little-endian binary primitives shared by every serializer.
// The repository only targets little-endian platforms (as the CMake
// toolchain asserts nothing else), so raw writes are byte-exact.

template <typename T>
void WriteScalar(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadScalar(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Length-prefixed vector of trivially copyable elements.
template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WriteScalar<uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

// Bytes between the read position and the end of `in`; UINT64_MAX when
// the stream cannot tell (not seekable, or already failed).
inline uint64_t BytesLeft(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return UINT64_MAX;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return UINT64_MAX;
  return static_cast<uint64_t>(end - here);
}

// Reads a length-prefixed vector; rejects sizes above `max_elements` or
// beyond the bytes left in the stream, so a corrupt length fails as
// truncation instead of allocating what it claims.
template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* v,
                uint64_t max_elements = uint64_t{1} << 32) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  if (!ReadScalar(in, &size) || size > max_elements ||
      size > BytesLeft(in) / sizeof(T)) {
    return false;
  }
  v->resize(size);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(size * sizeof(T)));
  }
  return static_cast<bool>(in);
}

// 8-byte magic tag check.
inline void WriteMagic(std::ostream& out, const char magic[8]) {
  out.write(magic, 8);
}
inline bool CheckMagic(std::istream& in, const char magic[8]) {
  char buf[8] = {};
  in.read(buf, 8);
  return in && std::memcmp(buf, magic, 8) == 0;
}

}  // namespace roadnet

#endif  // ROADNET_IO_BINARY_H_
