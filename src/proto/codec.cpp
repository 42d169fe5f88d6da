#include "src/proto/codec.h"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace cvr::proto {

namespace {

/// Writes `v` little-endian to `dst` (no bounds check).
template <typename T>
void store_le(std::uint8_t* dst, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Appends `v` little-endian.
template <typename T>
void put_le(Buffer& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

/// Reads a little-endian `T` from `src` (no bounds check).
template <typename T>
T get_le(const std::uint8_t* src) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, src, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(src[i]) << (8 * i);
    }
  }
  return v;
}

}  // namespace

void Writer::u8(std::uint8_t v) { out_->push_back(v); }
void Writer::u16(std::uint16_t v) { put_le(*out_, v); }
void Writer::u32(std::uint32_t v) { put_le(*out_, v); }
void Writer::u64(std::uint64_t v) { put_le(*out_, v); }
void Writer::f64(double v) { put_le(*out_, std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  u32(static_cast<std::uint32_t>(size));
  out_->insert(out_->end(), data, data + size);
}

void Reader::need(std::size_t n) const {
  if (n > size_ - pos_) {
    throw std::out_of_range("proto::Reader: truncated input");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  const auto v = get_le<std::uint16_t>(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  const auto v = get_le<std::uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const auto v = get_le<std::uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

Buffer Reader::bytes() {
  const Reader blob = sub(u32());
  return Buffer(blob.data_, blob.data_ + blob.size_);
}

Reader Reader::sub(std::size_t n) {
  need(n);
  const Reader view(data_ + pos_, n);
  pos_ += n;
  return view;
}

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][i] is the CRC state after feeding byte i followed by k
/// zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ get_le<std::uint32_t>(data);
    const std::uint32_t hi = get_le<std::uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::size_t begin_frame(Buffer& out) {
  const std::size_t start = out.size();
  put_le<std::uint32_t>(out, 0);
  return start;
}

void end_frame(Buffer& out, std::size_t start) {
  const std::size_t payload = start + 4;
  const std::size_t size = out.size() - payload;
  store_le(out.data() + start, static_cast<std::uint32_t>(size));
  put_le(out, crc32(out.data() + payload, size));
}

Buffer frame(const Buffer& payload) {
  Buffer out;
  out.reserve(payload.size() + 8);
  const std::size_t start = begin_frame(out);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, start);
  return out;
}

Reader unframe(Reader& reader) {
  const std::uint32_t size = reader.u32();
  if (size > reader.remaining()) {
    throw std::runtime_error("proto::unframe: length exceeds input");
  }
  const Reader payload = reader.sub(size);
  const std::uint32_t expected = reader.u32();
  const auto bytes = payload.unread();
  if (crc32(bytes.data(), bytes.size()) != expected) {
    throw std::runtime_error("proto::unframe: CRC mismatch");
  }
  return payload;
}

}  // namespace cvr::proto
