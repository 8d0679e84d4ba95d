#include "hw/crc.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

namespace nectar::hw {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) { return {s.begin(), s.end()}; }

/// Bit-at-a-time CRC-32, straight from the polynomial: the reference the
/// table-driven implementation must agree with.
std::uint32_t reference_crc(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

/// 72 bytes of a fixed pseudo-random pattern.
std::vector<std::uint8_t> pattern() {
  std::vector<std::uint8_t> buf(72);
  std::uint32_t s = 0x12345678u;
  for (auto& b : buf) {
    s = s * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(s >> 24);
  }
  return buf;
}

TEST(Crc32, KnownVector) {
  // CRC-32/IEEE of "123456789" is 0xCBF43926 (standard check value).
  auto data = bytes("123456789");
  EXPECT_EQ(Crc32::compute(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  std::vector<std::uint8_t> empty;
  EXPECT_EQ(Crc32::compute(empty), 0u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  auto data = bytes("the quick brown fox jumps over the lazy dog");
  Crc32 c;
  c.update(std::span<const std::uint8_t>(data).subspan(0, 10));
  c.update(std::span<const std::uint8_t>(data).subspan(10));
  EXPECT_EQ(c.value(), Crc32::compute(data));
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndOffset) {
  // Covers the 8-byte main loop, the byte tail and every misalignment.
  auto buf = pattern();
  std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      auto piece = all.subspan(offset, len);
      EXPECT_EQ(Crc32::compute(piece), reference_crc(piece)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, StreamingMatchesOneShotAtEverySplitPoint) {
  auto buf = pattern();
  std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = reference_crc(all);
  for (std::size_t a = 0; a <= all.size(); ++a) {
    for (std::size_t b = a; b <= all.size(); b += 5) {
      Crc32 c;
      c.update(all.subspan(0, a));
      c.update(all.subspan(a, b - a));
      c.update(all.subspan(b));
      EXPECT_EQ(c.value(), whole) << "splits at " << a << " and " << b;
    }
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = bytes("important packet payload");
  std::uint32_t good = Crc32::compute(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32::compute(data), good) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32, DetectsByteSwap) {
  auto a = bytes("AB");
  auto b = bytes("BA");
  EXPECT_NE(Crc32::compute(a), Crc32::compute(b));
}

TEST(Crc32, ResetClearsState) {
  auto data = bytes("payload");
  Crc32 c;
  c.update(data);
  c.reset();
  c.update(data);
  EXPECT_EQ(c.value(), Crc32::compute(data));
}

}  // namespace
}  // namespace nectar::hw
