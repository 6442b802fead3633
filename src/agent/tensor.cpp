#include "agent/tensor.h"

#include <algorithm>
#include <cmath>

namespace dav {

namespace {

/// Sum over the `len` positions of a row of the (2r+1) taps that land in
/// range: one axis of a same-padded convolution's multiply-accumulate count.
std::uint64_t in_range_taps(int len, int radius) {
  std::uint64_t n = 0;
  for (int p = 0; p < len; ++p) {
    const int lo = std::max(-radius, -p);
    const int hi = std::min(radius, len - 1 - p);
    if (hi >= lo) n += static_cast<std::uint64_t>(hi - lo + 1);
  }
  return n;
}

/// Elements in the window [row_begin, row_end) x [col_begin, col_end).
std::uint64_t window_size(int row_begin, int row_end, int col_begin,
                          int col_end) {
  if (row_end <= row_begin || col_end <= col_begin) return 0;
  return static_cast<std::uint64_t>(row_end - row_begin) *
         static_cast<std::uint64_t>(col_end - col_begin);
}

}  // namespace

const std::array<float, 256>& unit_byte_table() {
  static const std::array<float, 256> table = [] {
    std::array<float, 256> t{};
    for (int b = 0; b < 256; ++b) {
      t[static_cast<std::size_t>(b)] = b * (1.0f / 255.0f);
    }
    return t;
  }();
  return table;
}

Tensor image_rows_to_tensor(GpuEngine& eng, const Image& img, int y0, int y1) {
  Tensor t(3, y1 - y0, img.width());
  eng.bulk(GpuOpcode::kLdg, static_cast<std::uint64_t>(y1 - y0) *
                                static_cast<std::uint64_t>(img.width()) * 3);
  const std::size_t plane = t.size() / 3;
  float* r = t.data().data();
  float* g = r + plane;
  float* b = g + plane;
  run_block(eng, {{GpuOpcode::kFScale, t.size()}}, [&](auto ex) {
    std::size_t i = 0;
    for (int y = y0; y < y1; ++y) {
      const std::uint8_t* px = img.row(y);
      for (int x = 0; x < img.width(); ++x, ++i, px += 3) {
        r[i] = ex(GpuOpcode::kFScale, px[0] * (1.0f / 255.0f));
        g[i] = ex(GpuOpcode::kFScale, px[1] * (1.0f / 255.0f));
        b[i] = ex(GpuOpcode::kFScale, px[2] * (1.0f / 255.0f));
      }
    }
  });
  eng.bulk(GpuOpcode::kStg, t.size());
  return t;
}

Tensor conv2d_plane(GpuEngine& eng, const Tensor& plane,
                    const std::vector<float>& kernel, int radius) {
  const int h = plane.height();
  const int w = plane.width();
  const int kdim = 2 * radius + 1;
  Tensor out(1, h, w);
  eng.bulk(GpuOpcode::kLdg, plane.size());
  const std::uint64_t n_macc = in_range_taps(h, radius) * in_range_taps(w, radius);
  if (eng.retire_clean({{GpuOpcode::kFMacc, n_macc},
                        {GpuOpcode::kFFma, out.size()}})) {
    // Tap-major: each output still accumulates its in-range taps in (ky, kx)
    // order from 0.0f, so it sees the scalar loop's operations in the same
    // order, and the x loop vectorizes.
    for (int y = 0; y < h; ++y) {
      float* acc = out.data().data() + static_cast<std::size_t>(y) * w;
      for (int ky = -radius; ky <= radius; ++ky) {
        const int yy = y + ky;
        if (yy < 0 || yy >= h) continue;
        const float* row = plane.data().data() + static_cast<std::size_t>(yy) * w;
        for (int kx = -radius; kx <= radius; ++kx) {
          const float kv = kernel[static_cast<std::size_t>(
              (ky + radius) * kdim + (kx + radius))];
          const int x_end = std::min(w, w - kx);
          for (int x = std::max(0, -kx); x < x_end; ++x) {
            acc[x] = acc[x] + kv * row[x + kx];
          }
        }
      }
    }
  } else {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        float acc = 0.0f;
        for (int ky = -radius; ky <= radius; ++ky) {
          const int yy = y + ky;
          if (yy < 0 || yy >= h) continue;
          for (int kx = -radius; kx <= radius; ++kx) {
            const int xx = x + kx;
            if (xx < 0 || xx >= w) continue;
            const float kv = kernel[static_cast<std::size_t>(
                (ky + radius) * kdim + (kx + radius))];
            acc = eng.exec(GpuOpcode::kFMacc, acc + kv * plane.at(0, yy, xx));
          }
        }
        out.at(0, y, x) = eng.exec(GpuOpcode::kFFma, acc);
      }
    }
  }
  eng.bulk(GpuOpcode::kStg, out.size());
  return out;
}

Tensor avg_pool(GpuEngine& eng, const Tensor& t, int k) {
  const int oh = t.height() / k;
  const int ow = t.width() / k;
  Tensor out(t.channels(), oh, ow);
  eng.bulk(GpuOpcode::kLdg, t.size());
  const float inv = 1.0f / static_cast<float>(k * k);
  const auto taps = static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(k);
  run_block(eng, {{GpuOpcode::kFAdd, out.size() * taps},
                  {GpuOpcode::kRedAdd, out.size()}}, [&](auto ex) {
    for (int c = 0; c < t.channels(); ++c) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          // Every partial sum is an instrumented FADD: a permanent fault on
          // the accumulate opcode corrupts each step of the reduction (the
          // register-level semantics of the paper's injectors), which is what
          // makes corrupted aggregates diverge between data-diverse agents.
          float acc = 0.0f;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              acc = ex(GpuOpcode::kFAdd, acc + t.at(c, y * k + dy, x * k + dx));
            }
          }
          out.at(c, y, x) = ex(GpuOpcode::kRedAdd, acc * inv);
        }
      }
    }
  });
  eng.bulk(GpuOpcode::kStg, out.size());
  return out;
}

CentroidResult col_centroid(GpuEngine& eng, const Tensor& t, int channel,
                            int row_begin, int row_end, int col_begin,
                            int col_end) {
  float mass = 0.0f;
  float weighted = 0.0f;
  const std::uint64_t n = window_size(row_begin, row_end, col_begin, col_end);
  run_block(eng, {{GpuOpcode::kFAdd, n}, {GpuOpcode::kFMacc, n}}, [&](auto ex) {
    for (int y = row_begin; y < row_end; ++y) {
      for (int x = col_begin; x < col_end; ++x) {
        const float v = t.at(channel, y, x);
        mass = ex(GpuOpcode::kFAdd, mass + v);
        weighted = ex(GpuOpcode::kFMacc, weighted + v * static_cast<float>(x));
      }
    }
  });
  CentroidResult r;
  r.mass = eng.exec(GpuOpcode::kRedAdd, mass);
  if (r.mass > 1e-6f) {
    r.centroid = eng.exec(GpuOpcode::kFDiv, weighted / r.mass);
  } else {
    r.centroid = eng.exec(GpuOpcode::kMovReg, -1.0f);
  }
  return r;
}

float window_sum(GpuEngine& eng, const Tensor& t, int channel, int row_begin,
                 int row_end, int col_begin, int col_end) {
  float acc = 0.0f;
  const std::uint64_t n = window_size(row_begin, row_end, col_begin, col_end);
  run_block(eng, {{GpuOpcode::kFAdd, n}, {GpuOpcode::kRedAdd, 1}}, [&](auto ex) {
    for (int y = row_begin; y < row_end; ++y) {
      for (int x = col_begin; x < col_end; ++x) {
        acc = ex(GpuOpcode::kFAdd, acc + t.at(channel, y, x));
      }
    }
    acc = ex(GpuOpcode::kRedAdd, acc);
  });
  return acc;
}

std::vector<float> fully_connected(GpuEngine& eng, const std::vector<float>& in,
                                   const std::vector<float>& weights,
                                   const std::vector<float>& bias,
                                   bool apply_relu) {
  const std::size_t n = in.size();
  const std::size_t m = bias.size();
  std::vector<float> out(m, 0.0f);
  eng.bulk(GpuOpcode::kLdg, n + weights.size());
  for (std::size_t j = 0; j < m; ++j) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      acc = eng.exec(GpuOpcode::kFMacc, acc + weights[j * n + i] * in[i]);
    }
    acc = eng.exec(GpuOpcode::kFBias, acc + bias[j]);
    if (apply_relu) acc = eng.exec(GpuOpcode::kFRelu, acc > 0.0f ? acc : 0.0f);
    out[j] = acc;
  }
  eng.bulk(GpuOpcode::kStg, m);
  return out;
}

}  // namespace dav
