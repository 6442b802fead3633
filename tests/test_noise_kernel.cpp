// The noise pass's two paths: the integer-offset form the AVX2 kernel needs,
// and the kernel against the scalar loop on the same frames and streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sensors/noise.h"

namespace dav {
namespace {

TEST(NoiseKernel, OffsetFormIsExactForSigma2) {
  for (const double sigma : {2.0, 0.0}) {
    const PixelNoise noise(sigma);
    ASSERT_TRUE(noise.has_offset_form()) << "sigma " << sigma;
    for (int k = 0; k < 256; ++k) {
      // Truncating ch + (k - 128) * sigma / 74 adds its floor to a whole ch.
      EXPECT_EQ(noise.offset(k),
                static_cast<int>(std::floor((k - 128) * (sigma / 74.0))))
          << "sigma " << sigma << " k " << k;
      for (int ch = 0; ch < 256; ++ch) {
        ASSERT_EQ(noise.table()[ch << 8 | k],
                  std::clamp(ch + noise.offset(k), 0, 255))
            << "sigma " << sigma << " ch " << ch << " k " << k;
      }
    }
  }
  // Sigma 2 spans offsets -4 to 3: four steps down and three up.
  const PixelNoise two(2.0);
  EXPECT_EQ(two.offset(0), -4);
  EXPECT_EQ(two.offset(255), 3);
}

TEST(NoiseKernel, NoOffsetFormOneRoundingStepFromSigma2) {
  // Each sigma rounds some (channel, noise byte) sums across a whole number
  // that the noise byte's offset does not cross: at noise bytes 165 and 202
  // just below 2, and 17, 54 and 91 just above.
  for (const double sigma :
       {std::nextafter(2.0, 0.0), std::nextafter(2.0, 4.0)}) {
    EXPECT_FALSE(PixelNoise(sigma).has_offset_form()) << sigma;
    // The scalar path is the only one such a frame takes.
    const FrameNoise frame(sigma, 96 * 72);
    std::vector<std::uint8_t> a(96 * 72 * 3, 77);
    std::vector<std::uint8_t> b = a;
    Rng ra(5);
    Rng rb(5);
    frame.apply(a.data(), ra);
    frame.apply_scalar(b.data(), rb);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ra.state(), rb.state());
  }
}

/// A frame of `pixels` RGB pixels: smooth bands, saturated runs and noise,
/// so every channel byte meets both clamps.
std::vector<std::uint8_t> test_frame(std::size_t pixels, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(pixels * 3);
  Rng rng(seed);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    switch ((i / 97) % 4) {
      case 0: bytes[i] = static_cast<std::uint8_t>(i); break;
      case 1: bytes[i] = (i / 7) % 2 == 0 ? 0 : 255; break;
      case 2:  // one to three steps from either clamp
        bytes[i] =
            static_cast<std::uint8_t>(i % 2 == 0 ? 1 + i % 3 : 252 + i % 3);
        break;
      default: bytes[i] = static_cast<std::uint8_t>(rng()); break;
    }
  }
  return bytes;
}

TEST(NoiseKernel, Avx2KernelMatchesScalarLoop) {
  if (!FrameNoise::avx2_supported()) GTEST_SKIP() << "CPU without AVX2";
  struct Size {
    int w, h;
  };
  // Runs of 1728 pixels with none left over; runs of 160 with 20 left; runs
  // of 8 with 3 left; and no runs, all 25 pixels left to the scalar loop.
  for (const Size size : {Size{96, 72}, Size{30, 22}, Size{7, 5}, Size{5, 5}}) {
    const std::size_t pixels = static_cast<std::size_t>(size.w) * size.h;
    for (const double sigma : {2.0, 0.0, 8.0}) {
      const FrameNoise frame(sigma, pixels);
      ASSERT_TRUE(frame.pixel_noise().has_offset_form()) << sigma;
      std::vector<std::uint8_t> scalar = test_frame(pixels, 11);
      std::vector<std::uint8_t> avx2 = scalar;
      Rng rs(2022);
      Rng rv(2022);
      // Several frames in a row on one stream, as a camera renders them.
      for (int f = 0; f < 4; ++f) {
        frame.apply_scalar(scalar.data(), rs);
        frame.apply_avx2(avx2.data(), rv);
        ASSERT_EQ(avx2, scalar)
            << size.w << "x" << size.h << " sigma " << sigma << " frame " << f;
        ASSERT_EQ(rv.state(), rs.state())
            << size.w << "x" << size.h << " sigma " << sigma << " frame " << f;
      }
    }
  }
}

}  // namespace
}  // namespace dav
