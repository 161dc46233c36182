#ifndef ESHARP_COMMON_BYTE_IO_H_
#define ESHARP_COMMON_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

/// \file
/// Fixed-width binary encoding shared by the snapshot file
/// (serving/snapshot_file.h) and the shard evidence frame
/// (cluster/transport_http.h): Append* writers and the bounds-checked
/// ByteReader. Values are copied in host byte order; both formats define
/// it as little-endian, the byte order of every supported target.

namespace esharp {

inline void AppendU32(std::string* s, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  s->append(b, 4);
}

inline void AppendU64(std::string* s, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s->append(b, 8);
}

inline void AppendF64(std::string* s, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s->append(b, 8);
}

template <typename T>
void AppendArray(std::string* s, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  s->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// Writes a string column: offsets[n+1] (u64, into the blob) then the blob.
inline void AppendStringColumn(std::string* s,
                               const std::vector<std::string>& col) {
  uint64_t off = 0;
  AppendU64(s, off);
  for (const std::string& str : col) {
    off += str.size();
    AppendU64(s, off);
  }
  for (const std::string& str : col) s->append(str);
}

/// Bounds-checked cursor over untrusted bytes. Every primitive checks the
/// remaining length before it reads, so a corrupted count fails cleanly
/// mid-decode but never reads outside [data, data + size). Errors name
/// `context` ("snapshot section USERS", "shard evidence frame"), which
/// must outlive the reader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, const char* context)
      : p_(data), n_(size), context_(context) {}

  Status ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  Status ReadF64(double* v) { return ReadRaw(v, 8); }

  /// Borrows the next `size` bytes without copying them.
  Status ReadBytes(size_t size, const uint8_t** out) {
    if (size > remaining()) {
      return Status::IOError(context_, ": ", size, "-byte block overruns (",
                             remaining(), " bytes left)");
    }
    *out = p_ + pos_;
    pos_ += size;
    return Status::OK();
  }

  /// Reads `count` fixed-width elements. Guards count*width overflow by
  /// checking against the remaining bytes first.
  template <typename T>
  Status ReadArray(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      return Status::IOError(context_, ": array of ", count, " x ", sizeof(T),
                             "B overruns (", remaining(), " bytes left)");
    }
    out->resize(count);
    // An empty vector's data() may be null, which memcpy must never see.
    if (count > 0) std::memcpy(out->data(), p_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::OK();
  }

  /// Reads a string column written by AppendStringColumn: offsets[count+1]
  /// then the blob the offsets index into.
  Status ReadStringColumn(size_t count, std::vector<std::string>* out) {
    // count + 1 offsets must fit; checked before the +1 can wrap.
    if (count >= remaining() / sizeof(uint64_t)) {
      return Status::IOError(context_, ": string column of ", count,
                             " entries overruns (", remaining(),
                             " bytes left)");
    }
    std::vector<uint64_t> offsets;
    ESHARP_RETURN_NOT_OK(ReadArray(count + 1, &offsets));
    if (offsets[0] != 0) {
      return Status::IOError(context_, ": string column does not start at 0");
    }
    for (size_t i = 0; i < count; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Status::IOError(context_, ": string offsets not monotone");
      }
    }
    const uint64_t blob = offsets[count];
    if (blob > remaining()) {
      return Status::IOError(context_, ": string blob (", blob,
                             "B) overruns");
    }
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i].assign(reinterpret_cast<const char*>(p_ + pos_ + offsets[i]),
                       offsets[i + 1] - offsets[i]);
    }
    pos_ += blob;
    return Status::OK();
  }

  size_t remaining() const { return n_ - pos_; }
  const char* context() const { return context_; }

 private:
  Status ReadRaw(void* out, size_t len) {
    if (len > remaining()) {
      return Status::IOError(context_, ": truncated read at offset ", pos_);
    }
    std::memcpy(out, p_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  const char* context_;
};

}  // namespace esharp

#endif  // ESHARP_COMMON_BYTE_IO_H_
