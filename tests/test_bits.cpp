#include <gtest/gtest.h>

#include <cmath>

#include "util/bits.h"

namespace dav {
namespace {

TEST(Rotl64, ZeroAndFullRotationAreIdentity) {
  // Regression: the previous formulation `x >> (64 - k)` shifted by 64 when
  // k == 0, which is undefined behavior (caught by the UBSan hardening pass).
  const std::uint64_t x = 0x0123456789ABCDEFULL;
  EXPECT_EQ(rotl64(x, 0), x);
  EXPECT_EQ(rotl64(x, 64), x);
  EXPECT_EQ(rotl64(x, 128), x);
}

TEST(Rotl64, RotatesBits) {
  EXPECT_EQ(rotl64(1ULL, 1), 2ULL);
  EXPECT_EQ(rotl64(1ULL << 63, 1), 1ULL);
  EXPECT_EQ(rotl64(0x8000000000000001ULL, 4), 0x0000000000000018ULL);
}

TEST(BitDiff, Bytes) {
  EXPECT_EQ(bit_diff(std::uint8_t{0x00}, std::uint8_t{0x00}), 0);
  EXPECT_EQ(bit_diff(std::uint8_t{0xFF}, std::uint8_t{0x00}), 8);
  EXPECT_EQ(bit_diff(std::uint8_t{0b1010}, std::uint8_t{0b0101}), 4);
}

TEST(BitDiff, PaperExample95To96) {
  // Paper §III-D: a pixel changing from 95 to 96 per channel flips 6 bits
  // per channel (95 = 0101'1111, 96 = 0110'0000), i.e. 18 of 24 bits.
  EXPECT_EQ(3 * bit_diff(std::uint8_t{95}, std::uint8_t{96}), 18);
}

TEST(BitDiff, Words) {
  EXPECT_EQ(bit_diff(0xFFFFFFFFu, 0x0u), 32);
  EXPECT_EQ(bit_diff(0x1u, 0x3u), 1);
}

TEST(BitDiff, Floats) {
  EXPECT_EQ(bit_diff(1.0f, 1.0f), 0);
  EXPECT_GT(bit_diff(1.0f, -1.0f), 0);  // sign bit at least
  EXPECT_EQ(bit_diff(0.0f, 0.0f), 0);
}

TEST(FloatBits, RoundTrip) {
  for (float f : {0.0f, 1.0f, -3.5f, 1e-20f, 1e20f}) {
    EXPECT_EQ(bits_float(float_bits(f)), f);
  }
}

TEST(XorFloat, SingleBitFlipIsInvolution) {
  const float x = 123.456f;
  for (int bit = 0; bit < 32; ++bit) {
    const std::uint32_t mask = 1u << bit;
    const float y = xor_float(x, mask);
    EXPECT_NE(float_bits(y), float_bits(x));
    EXPECT_EQ(float_bits(xor_float(y, mask)), float_bits(x));
  }
}

TEST(XorFloat, SignBitNegates) {
  EXPECT_FLOAT_EQ(xor_float(2.5f, 1u << 31), -2.5f);
}

TEST(XorFloat, ExponentFlipScales) {
  // Flipping the lowest exponent bit of a power of two doubles or halves.
  const float y = xor_float(1.0f, 1u << 23);
  EXPECT_TRUE(y == 2.0f || y == 0.5f);
}

}  // namespace
}  // namespace dav
