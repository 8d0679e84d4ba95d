#include "hw/crc.hpp"

#include <array>
#include <cstddef>

namespace nectar::hw {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the classic byte table; kTables[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight lookups advance
/// the CRC over eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian 32-bit load; compiles to one mov on x86.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32::compute(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

void Crc32::update(std::span<const std::uint8_t> data) {
  const auto& t = kTables;
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = c ^ load_le32(p);
    std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  state_ = c;
}

std::uint32_t Crc32::value() const { return state_ ^ 0xFFFFFFFFu; }

void Crc32::reset() { state_ = kInit; }

}  // namespace nectar::hw
