// Binary wire codec for the client <-> server protocol.
//
// Little-endian, length-checked primitives with a CRC32 frame check —
// the encoding a production port of the paper's Java/Android protocol
// would put on the TCP side channel (poses, ACKs) and in RTP payload
// headers. Deliberately dependency-free.
//
// Allocation contract: nothing here allocates except to grow the
// caller's Buffer. Writer appends into a caller-owned Buffer; a frame's
// length and CRC are written in place around a payload already in that
// Buffer (begin_frame/end_frame), so framing copies nothing; unframe
// checks the CRC over the bytes where they lie and returns a Reader
// over the payload. A caller that recycles one Buffer therefore encodes
// and decodes with no heap allocation once the Buffer has grown to its
// largest message. Only Reader::bytes() and the returned-Buffer
// frame() copy out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cvr::proto {

using Buffer = std::vector<std::uint8_t>;

/// Appends primitives to a buffer (little-endian).
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// Length-prefixed (u32) byte string.
  void bytes(const std::uint8_t* data, std::size_t size);

 private:
  Buffer* out_;
};

/// Reads primitives; all methods throw std::out_of_range on truncation.
/// A Reader views its bytes and never owns them.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer)
      : Reader(buffer.data(), buffer.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Length-prefixed byte string (copies out).
  Buffer bytes();
  /// Consumes the next `n` bytes and returns a Reader over them.
  Reader sub(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// The unread bytes, without consuming them.
  std::span<const std::uint8_t> unread() const {
    return {data_ + pos_, size_ - pos_};
  }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected), computed slice-by-8: eight table
/// lookups per 8 input bytes. Bit-identical to the bytewise definition
/// at every length and alignment.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t crc32(const Buffer& buffer) {
  return crc32(buffer.data(), buffer.size());
}

/// Opens a frame at the end of `out` by appending a placeholder u32
/// length; the payload is then appended (e.g. through a Writer) and the
/// frame closed with end_frame. Returns the frame's start offset.
std::size_t begin_frame(Buffer& out);

/// Closes the frame opened at `start`: patches its length in place and
/// appends crc32 of the payload bytes where they lie. Wire layout:
/// u32 length | payload | u32 crc32(payload).
void end_frame(Buffer& out, std::size_t start);

/// Frames a copy of `payload` into a new buffer.
Buffer frame(const Buffer& payload);

/// Consumes exactly one frame from the reader and returns a Reader over
/// its payload, which views the reader's bytes in place (valid as long
/// as they are). Throws std::runtime_error on a bad length or a CRC
/// mismatch, std::out_of_range on a truncated header or trailer.
Reader unframe(Reader& reader);

}  // namespace cvr::proto
