// RGB8 image type produced by the camera sensors.
#pragma once

#include <cstdint>
#include <vector>

namespace dav {

struct Rgb {
  std::uint8_t r = 0, g = 0, b = 0;
};

/// Row-major RGB8 image (3 bytes per pixel, 24-bit color as in the paper's
/// bit-diversity analysis: "24-bit RGB color value (8-bit per color)").
class Image {
 public:
  Image() = default;
  Image(int width, int height) : w_(width), h_(height),
        data_(static_cast<std::size_t>(width) * height * 3, 0) {}

  int width() const { return w_; }
  int height() const { return h_; }
  bool empty() const { return data_.empty(); }

  Rgb get(int x, int y) const {
    const std::size_t i = idx(x, y);
    return {data_[i], data_[i + 1], data_[i + 2]};
  }
  void set(int x, int y, Rgb c) {
    const std::size_t i = idx(x, y);
    data_[i] = c.r;
    data_[i + 1] = c.g;
    data_[i + 2] = c.b;
  }

  /// First byte of row y (3 bytes per pixel, width() pixels).
  std::uint8_t* row(int y) { return data_.data() + idx(0, y); }
  const std::uint8_t* row(int y) const { return data_.data() + idx(0, y); }

  const std::vector<std::uint8_t>& bytes() const { return data_; }
  std::vector<std::uint8_t>& bytes() { return data_; }
  std::size_t byte_size() const { return data_.size(); }

 private:
  std::size_t idx(int x, int y) const {
    return (static_cast<std::size_t>(y) * w_ + x) * 3;
  }
  int w_ = 0;
  int h_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace dav
