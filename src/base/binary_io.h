// Bounds-checked little-endian binary encoding primitives for the
// persistent artifact store (src/cache/persist.h) and the serializers
// built on it (src/logic/serialize.h, src/cache/serialize.h).
//
// ByteWriter appends fixed-width little-endian integers and
// length-prefixed strings to an owned buffer. ByteReader is the inverse:
// every read is bounds-checked against the input span and a failed read
// latches the reader into a failed state (subsequent reads return zero
// values and never touch memory), so a truncated or bit-flipped input
// degrades to `!ok()` instead of undefined behavior. Readers never trust
// embedded lengths: a length prefix larger than the remaining input fails
// the read before any allocation sized from it.

#ifndef OMQC_BASE_BINARY_IO_H_
#define OMQC_BASE_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace omqc {

/// Append-only little-endian encoder over an owned std::string buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v, 2); }
  void U32(uint32_t v) { AppendLe(v, 4); }
  void U64(uint64_t v) { AppendLe(v, 8); }
  /// Two's-complement via the unsigned encoding.
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void AppendLe(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian decoder over a caller-owned span. The
/// span must outlive the reader. All reads after a failure return zeros /
/// empty strings; check ok() once after the last read.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : p_(static_cast<const uint8_t*>(data)), end_(p_ + size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// True when every byte was consumed and no read failed.
  bool AtEnd() const { return ok_ && p_ == end_; }

  uint8_t U8() { return static_cast<uint8_t>(ReadLe(1)); }
  uint16_t U16() { return static_cast<uint16_t>(ReadLe(2)); }
  uint32_t U32() { return static_cast<uint32_t>(ReadLe(4)); }
  uint64_t U64() { return ReadLe(8); }
  int32_t I32() { return static_cast<int32_t>(U32()); }

  /// Length-prefixed string; fails (and returns "") when the prefix
  /// exceeds the remaining input.
  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string out(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return out;
  }

  /// Raw copy of `n` bytes into `out`; fails without a partial write when
  /// fewer remain.
  bool Bytes(void* out, size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }

 private:
  uint64_t ReadLe(size_t width) {
    if (!ok_ || width > remaining()) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    }
    p_ += width;
    return v;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

}  // namespace omqc

#endif  // OMQC_BASE_BINARY_IO_H_
