#ifndef ROADNET_IO_CRC32_H_
#define ROADNET_IO_CRC32_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "io/binary.h"

namespace roadnet {

// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) over arbitrary
// bytes. An index file travels from the preprocessing host to query
// servers; a truncated copy or a flipped bit must fail loudly at load
// time, not surface later as a wrong distance. Table-driven, one shift
// per byte — file loading is I/O bound, not CRC bound.
namespace crc32_internal {

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace crc32_internal

// CRC of `data`; chain calls by passing the previous result as `seed`.
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = crc32_internal::kTable[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

// Checksummed payload block: u64 length, the payload bytes, then the
// u32 CRC of those bytes. Writers stream the payload through this class
// (its length must be known up front) or serialize it into a buffer
// first (WriteChecksummedPayload); readers verify the trailer before any
// parsing, so corrupt input is rejected before it can construct a broken
// index. Append exactly the announced bytes, then call Finish to write
// the CRC.
class ChecksummedPayloadWriter {
 public:
  ChecksummedPayloadWriter(std::ostream& out, uint64_t size)
      : out_(out), left_(size) {
    WriteScalar<uint64_t>(out, size);
  }

  void Append(const void* data, size_t size) {
    assert(size <= left_);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    crc_ = Crc32(data, size, crc_);
    left_ -= size;
  }

  template <typename T>
  void AppendScalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(&value, sizeof(T));
  }

  void Finish() {
    assert(left_ == 0);
    WriteScalar<uint32_t>(out_, crc_);
  }

 private:
  std::ostream& out_;
  uint64_t left_;
  uint32_t crc_ = 0;
};

inline void WriteChecksummedPayload(std::ostream& out,
                                    std::string_view payload) {
  ChecksummedPayloadWriter writer(out, payload.size());
  writer.Append(payload.data(), payload.size());
  writer.Finish();
}

// Reads a checksummed payload block into *payload. On failure returns
// false and describes the problem ("truncated", "checksum mismatch") in
// *error with `what` as a prefix. `max_bytes` and the bytes left in the
// stream bound the length before anything is allocated, so a corrupt
// length cannot trigger a giant allocation.
inline bool ReadChecksummedPayload(std::istream& in, std::string* payload,
                                   const std::string& what,
                                   std::string* error,
                                   uint64_t max_bytes = uint64_t{1} << 34) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = what + ": " + why;
    return false;
  };
  uint64_t size = 0;
  if (!ReadScalar(in, &size)) return fail("truncated header");
  if (size > max_bytes) return fail("implausible payload length (corrupt?)");
  if (size > BytesLeft(in)) return fail("truncated payload");
  payload->resize(size);
  in.read(payload->data(), static_cast<std::streamsize>(size));
  if (!in) return fail("truncated payload");
  uint32_t stored = 0;
  if (!ReadScalar(in, &stored)) return fail("missing checksum trailer");
  if (stored != Crc32(*payload)) {
    return fail("checksum mismatch (truncated or bit-flipped file)");
  }
  return true;
}

}  // namespace roadnet

#endif  // ROADNET_IO_CRC32_H_
