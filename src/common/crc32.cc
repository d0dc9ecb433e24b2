#include "common/crc32.h"

#include <array>
#include <cstring>

namespace eve {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// a(x) * b(x) modulo the CRC polynomial, in the CRC's reflected bit order
// (bit 31 holds x^0).
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

// kPowers[k] = x^(2^k) modulo the polynomial; x^n is the product of the
// entries for the set bits of n. x^(2^32) = x modulo this polynomial, so
// the table repeats after 32 entries.
using PowerTable = std::array<uint32_t, 32>;

PowerTable BuildPowers() {
  PowerTable powers{};
  uint32_t p = 1u << 30;  // x^1
  for (uint32_t& power : powers) {
    power = p;
    p = MultModP(p, p);
  }
  return powers;
}

// Little-endian load of four bytes, independent of host byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Crc32Tables kTables = BuildTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Crc32Combiner::Crc32Combiner(size_t size_b) : shift_(1u << 31) {
  static const PowerTable kPowers = BuildPowers();
  // x^(8 size_b): the bits of size_b, starting at x^8 = x^(2^3).
  uint64_t n = size_b;
  for (size_t k = 3; n != 0; n >>= 1, ++k) {
    if ((n & 1) != 0) shift_ = MultModP(kPowers[k % kPowers.size()], shift_);
  }
}

uint32_t Crc32Combiner::Combine(uint32_t crc_a, uint32_t crc_b) const {
  return MultModP(shift_, crc_a) ^ crc_b;
}

}  // namespace eve
