// Photometric noise of an untextured camera frame: one xoshiro256** draw per
// pixel, in pixel order, whose three low bytes jitter the pixel's three
// channel bytes.
//
// The noise is where consecutive frames get their bit-level diversity, so
// every path below writes the same bytes and leaves the stream where one
// draw per pixel leaves it. There are two paths:
//   - the scalar loop: draws one pixel at a time and looks each channel up
//     in a (channel byte, noise byte) table;
//   - an AVX2 kernel: splits the frame's draws into four consecutive runs,
//     starts each at a precomputed jump ahead on the stream, advances the
//     four runs in the four 64-bit lanes of one register, and jitters eight
//     pixels per run at a time with byte compares and saturating adds. It
//     runs only where the table has an integer-offset form (PixelNoise) in
//     few enough steps to beat the table and the CPU has AVX2, and leaves
//     the pixels after the four runs to the scalar loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace dav {

/// The jitter of one pixel channel at one noise sigma: channel byte `ch` and
/// noise byte `k` become table()[ch << 8 | k], that is
/// clamp(ch + (k - 128) * sigma / 74, 0, 255) truncated to a byte.
class PixelNoise {
 public:
  explicit PixelNoise(double sigma);

  const std::uint8_t* table() const { return table_.data(); }

  /// True when one integer offset per noise byte reproduces every entry:
  /// table()[ch << 8 | k] == clamp(ch + offset(k), 0, 255) for all 65,536
  /// (ch, k). Checked when the table is built; a sigma a rounding step away
  /// from a whole offset (2 - 2^-51, say) has none.
  bool has_offset_form() const { return has_offset_form_; }
  /// The offset of noise byte k. Meaningful only with has_offset_form().
  int offset(int k) const;
  /// The number of unit steps offset(k) takes from k = 0 to 255: one byte
  /// compare each in the AVX2 kernel. Zero without the offset form.
  std::size_t offset_steps() const { return down_.size() + up_.size(); }

 private:
  friend class FrameNoise;
  /// A byte threshold repeated across a 32-byte register.
  using Splat = std::array<std::int8_t, 32>;

  std::array<std::uint8_t, 256 * 256> table_{};
  bool has_offset_form_ = false;
  /// The offset form as thresholds on the noise byte: offset(k) is the
  /// number of `up_` thresholds t with k >= t, less the number of `down_`
  /// thresholds t with k < t. Each is stored biased for signed byte
  /// compares of k - 128: a down threshold as t - 128, an up one as t - 129.
  std::vector<Splat> down_;
  std::vector<Splat> up_;
};

/// The scalar loop: one draw per pixel for `pixels` RGB pixels from `p`,
/// each channel looked up in `table` (a PixelNoise::table()).
void add_noise_scalar(const std::uint8_t* table, std::uint8_t* p,
                      std::size_t pixels, Rng& noise);

/// The noise pass of an untextured frame of `pixels` RGB pixels at one
/// sigma. It picks its path once, on construction.
class FrameNoise {
 public:
  /// The most offset steps at which the AVX2 kernel beats the scalar loop.
  /// Each step costs the kernel about 0.2 us per 96x72 frame, while the
  /// loop's cost does not depend on sigma. Standalone, best of 2,000
  /// frames on a shared 4-vCPU AVX-512 host, kernel against loop:
  /// sigma 8 (27 steps) 10.7-11.6 against 13.3-19.4 us, sigma 10 (35)
  /// 12.1-13.9 against 13.0-14.8, 38 steps 13.6-15.7 against 13.9-16.0,
  /// 39 steps level, sigma 12 (41) 12.6-15.3 against 12.3-14.9 and
  /// sigma 16 (55) 15.1-16.5 against 12.3-13.5.
  static constexpr std::size_t kMaxKernelSteps = 38;

  FrameNoise(double sigma, std::size_t pixels);

  const PixelNoise& pixel_noise() const { return *noise_; }

  /// True when this CPU can run the AVX2 kernel (x86-64 only).
  static bool avx2_supported();

  /// True when apply() runs the AVX2 kernel: the CPU has AVX2, the sigma
  /// has the offset form in at most kMaxKernelSteps steps and the frame
  /// has at least 32 pixels.
  bool uses_kernel() const { return kernel_; }

  /// Jitter the frame at `rgb`: the AVX2 kernel where uses_kernel(), else
  /// the scalar loop. Either way one draw per pixel.
  void apply(std::uint8_t* rgb, Rng& noise) const;

  /// The scalar loop over the whole frame.
  void apply_scalar(std::uint8_t* rgb, Rng& noise) const;

  /// The AVX2 kernel: four runs of run_ pixels, then the scalar loop for
  /// the rest. Requires avx2_supported() and pixel_noise().has_offset_form().
  void apply_avx2(std::uint8_t* rgb, Rng& noise) const;

 private:
  const PixelNoise* noise_ = nullptr;
  std::size_t pixels_ = 0;
  /// Pixels per run: the largest multiple of 8 that fits four times.
  std::size_t run_ = 0;
  /// Jump over one run; set where the AVX2 kernel can run.
  const RngJump* jump_ = nullptr;
  /// Whether apply() runs the kernel.
  bool kernel_ = false;
};

}  // namespace dav
