// Tensors and tensor operations executed on the instrumented GPU engine.
//
// Every elementwise arithmetic result flows through GpuEngine::exec, so the
// fault injector can corrupt the destination register of any dynamic
// instruction; loads/stores are accounted in bulk. A kernel whose block of
// exec'd instructions no armed fault can touch retires the block in one step
// (GpuEngine::retire_clean) and computes it as plain arithmetic, with the
// same operations in the same order, so its results and dynamic indices are
// those of the scalar loop. This is the perception
// pipeline's compute fabric (the paper's CNN runs on the GPU; §V-C notes the
// agent "uses the GPU mostly for computations").
#pragma once

#include <array>
#include <vector>

#include "fi/engine.h"
#include "sensors/image.h"

namespace dav {

/// Dense CHW float tensor.
class Tensor {
 public:
  Tensor() = default;
  Tensor(int channels, int height, int width)
      : c_(channels), h_(height), w_(width),
        data_(static_cast<std::size_t>(channels) * height * width, 0.0f) {}

  int channels() const { return c_; }
  int height() const { return h_; }
  int width() const { return w_; }
  std::size_t size() const { return data_.size(); }

  float at(int c, int y, int x) const { return data_[idx(c, y, x)]; }
  float& at(int c, int y, int x) { return data_[idx(c, y, x)]; }
  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }

  std::size_t byte_size() const { return data_.size() * sizeof(float); }

 private:
  std::size_t idx(int c, int y, int x) const {
    return (static_cast<std::size_t>(c) * h_ + y) * w_ + x;
  }
  int c_ = 0, h_ = 0, w_ = 0;
  std::vector<float> data_;
};

/// The normalization image_rows_to_tensor applies to a channel byte,
/// byte * (1.0f / 255.0f), tabulated for every byte value: the same floats,
/// for kernels that read camera bytes directly.
const std::array<float, 256>& unit_byte_table();

/// Convert rows [y0, y1) of an RGB8 image to a 3x(y1-y0)xW tensor in [0,1]
/// (the perception pipeline crops to the ground region below the horizon).
/// Counts the global loads and executes the per-element normalization on the
/// engine.
Tensor image_rows_to_tensor(GpuEngine& eng, const Image& img, int y0, int y1);

/// 2-D convolution of a single-channel plane with a (2r+1)^2 kernel, same
/// padding. Every multiply-accumulate is an instrumented FMACC and the final
/// write-back an FFMA (destination register).
Tensor conv2d_plane(GpuEngine& eng, const Tensor& plane,
                    const std::vector<float>& kernel, int radius);

/// Average pooling by integer factor k (each output = scaled REDADD).
Tensor avg_pool(GpuEngine& eng, const Tensor& t, int k);

/// Column-centroid and mass of a row/column window of one channel:
/// mass = sum(v), centroid = sum(v * x) / mass (0 mass -> centroid = -1).
struct CentroidResult {
  float mass = 0.0f;
  float centroid = -1.0f;
};
CentroidResult col_centroid(GpuEngine& eng, const Tensor& t, int channel,
                            int row_begin, int row_end, int col_begin,
                            int col_end);

/// Sum of one channel over a row/column window.
float window_sum(GpuEngine& eng, const Tensor& t, int channel, int row_begin,
                 int row_end, int col_begin, int col_end);

/// Fully connected layer: out[j] = relu(sum_i in[i] * w[j*n+i] + b[j]).
std::vector<float> fully_connected(GpuEngine& eng, const std::vector<float>& in,
                                   const std::vector<float>& weights,
                                   const std::vector<float>& bias,
                                   bool apply_relu = true);

}  // namespace dav
