#include "src/proto/codec.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace cvr::proto {
namespace {

/// A copy of the payload unframe() views.
Buffer unframe_copy(Reader& reader) {
  const auto payload = unframe(reader).unread();
  return Buffer(payload.begin(), payload.end());
}

TEST(Codec, PrimitiveRoundTrips) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.f64(-3.14159);
  Reader reader(buffer);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(reader.f64(), -3.14159);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, LittleEndianLayout) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u32(0x01020304);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], 0x04);
  EXPECT_EQ(buffer[3], 0x01);
}

TEST(Codec, BytesRoundTrip) {
  Buffer buffer;
  Writer writer(buffer);
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  writer.bytes(data, 5);
  Reader reader(buffer);
  const Buffer out = reader.bytes();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4], 5);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, TruncationThrows) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u16(7);
  Reader reader(buffer);
  EXPECT_THROW(reader.u32(), std::out_of_range);
  Reader reader2(buffer);
  reader2.u8();
  reader2.u8();
  EXPECT_THROW(reader2.u8(), std::out_of_range);
}

TEST(Codec, SpecialFloats) {
  Buffer buffer;
  Writer writer(buffer);
  writer.f64(0.0);
  writer.f64(-0.0);
  writer.f64(1e308);
  writer.f64(5e-324);  // denormal
  Reader reader(buffer);
  EXPECT_DOUBLE_EQ(reader.f64(), 0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), -0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), 1e308);
  EXPECT_DOUBLE_EQ(reader.f64(), 5e-324);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (the classic check value).
  const char* data = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(data), 9),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The textbook bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320)
  // as the reference for the sliced implementation: every length from 0
  // to 257 covers each tail length after every number of 8-byte blocks,
  // and the eight start offsets cover every alignment of the block loads.
  const auto reference = [](const std::uint8_t* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  cvr::Rng rng(17);
  Buffer bytes(257 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 257; ++size) {
      const std::uint8_t* data = bytes.data() + offset;
      ASSERT_EQ(crc32(data, size), reference(data, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(Frame, RoundTrip) {
  Buffer payload = {10, 20, 30};
  const Buffer framed = frame(payload);
  Reader reader(framed);
  EXPECT_EQ(unframe_copy(reader), payload);
  EXPECT_TRUE(reader.done());
}

TEST(Frame, InPlaceFramingMatchesFrame) {
  // A frame built in place after existing bytes: only the new frame's
  // payload is covered by its length and CRC, and the bytes equal those
  // of frame() over the same payload.
  const Buffer payload = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 42};
  Buffer stream = frame({1, 2});
  const std::size_t first = stream.size();
  const std::size_t start = begin_frame(stream);
  EXPECT_EQ(start, first);
  stream.insert(stream.end(), payload.begin(), payload.end());
  end_frame(stream, start);
  const Buffer expected = frame(payload);
  EXPECT_EQ(Buffer(stream.begin() + static_cast<std::ptrdiff_t>(first),
                   stream.end()),
            expected);
  Reader reader(stream);
  EXPECT_EQ(unframe_copy(reader), Buffer({1, 2}));
  EXPECT_EQ(unframe_copy(reader), payload);
  EXPECT_TRUE(reader.done());
}

TEST(Frame, UnframeViewsThePayloadInPlace) {
  const Buffer framed = frame({5, 6, 7});
  Reader reader(framed);
  Reader payload = unframe(reader);
  ASSERT_EQ(payload.remaining(), 3u);
  EXPECT_EQ(payload.unread().data(), framed.data() + 4);
  EXPECT_EQ(payload.u8(), 5);
  EXPECT_EQ(payload.remaining(), 2u);
}

TEST(Frame, TruncatedTrailerThrowsOutOfRange) {
  Buffer framed = frame({1, 2, 3});
  framed.pop_back();  // the CRC is cut short; the length still fits
  Reader reader(framed);
  EXPECT_THROW(unframe(reader), std::out_of_range);
}

TEST(Frame, EmptyPayloadOk) {
  const Buffer framed = frame({});
  Reader reader(framed);
  EXPECT_TRUE(unframe(reader).done());
}

TEST(Frame, CorruptionDetected) {
  Buffer payload = {1, 2, 3, 4};
  Buffer framed = frame(payload);
  framed[5] ^= 0x01;  // flip a payload bit
  Reader reader(framed);
  EXPECT_THROW(unframe(reader), std::runtime_error);
}

TEST(Frame, BadLengthDetected) {
  Buffer framed = frame({1, 2, 3});
  framed[0] = 200;  // claims a longer payload than present
  Reader reader(framed);
  EXPECT_THROW(unframe(reader), std::runtime_error);
}

TEST(Frame, BackToBackFrames) {
  const Buffer a = frame({1});
  const Buffer b = frame({2, 3});
  Buffer stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  Reader reader(stream);
  EXPECT_EQ(unframe_copy(reader), Buffer({1}));
  EXPECT_EQ(unframe_copy(reader), Buffer({2, 3}));
  EXPECT_TRUE(reader.done());
}

TEST(Frame, FuzzRandomBytesNeverCrash) {
  cvr::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Buffer garbage;
    const int size = static_cast<int>(rng.uniform_int(0, 64));
    for (int b = 0; b < size; ++b) {
      garbage.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    Reader reader(garbage);
    try {
      (void)unframe(reader);
    } catch (const std::exception&) {
      // Throwing is fine; crashing is not.
    }
  }
}

}  // namespace
}  // namespace cvr::proto
