#include <gtest/gtest.h>

#include <cmath>

#include "agent/tensor.h"
#include "block_equivalence.h"

namespace dav {
namespace {

GpuEngine clean_engine() {
  GpuEngine eng;
  eng.configure({}, 0);
  return eng;
}

using testing_blocks::never_lethal;

TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3, 4);
  EXPECT_EQ(t.channels(), 2);
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.width(), 4);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.byte_size(), 24u * sizeof(float));
  t.at(1, 2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
}

TEST(ImageToTensor, NormalizesTo01) {
  GpuEngine eng = clean_engine();
  Image img(4, 2);
  img.set(0, 0, {255, 0, 128});
  const Tensor t = image_rows_to_tensor(eng, img, 0, img.height());
  EXPECT_EQ(t.channels(), 3);
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.width(), 4);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0, 0), 0.0f);
  EXPECT_NEAR(t.at(2, 0, 0), 128.0f / 255.0f, 1e-6);
  EXPECT_GT(eng.total_dyn_instructions(), t.size());  // exec + loads/stores
}

TEST(ImageRowsToTensor, CropsRows) {
  GpuEngine eng = clean_engine();
  Image img(4, 6);
  img.set(0, 3, {90, 90, 90});
  const Tensor t = image_rows_to_tensor(eng, img, 2, 5);
  EXPECT_EQ(t.height(), 3);
  EXPECT_NEAR(t.at(0, 1, 0), 90.0f / 255.0f, 1e-6);
}

TEST(Conv2dPlane, IdentityKernel) {
  GpuEngine eng = clean_engine();
  Tensor in(1, 4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) in.at(0, y, x) = static_cast<float>(y * 4 + x);
  }
  std::vector<float> identity(9, 0.0f);
  identity[4] = 1.0f;  // center tap
  const Tensor out = conv2d_plane(eng, in, identity, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_FLOAT_EQ(out.at(0, y, x), in.at(0, y, x));
    }
  }
}

TEST(Conv2dPlane, BoxFilterAverages) {
  GpuEngine eng = clean_engine();
  Tensor in(1, 3, 3);
  in.at(0, 1, 1) = 9.0f;
  const std::vector<float> box(9, 1.0f / 9.0f);
  const Tensor out = conv2d_plane(eng, in, box, 1);
  EXPECT_NEAR(out.at(0, 1, 1), 1.0f, 1e-6);
  EXPECT_NEAR(out.at(0, 0, 0), 9.0f / 9.0f, 1e-6);  // corner sees the spike
}

TEST(AvgPool, DownsamplesByFactor) {
  GpuEngine eng = clean_engine();
  Tensor in(1, 4, 4);
  for (auto& v : in.data()) v = 2.0f;
  in.at(0, 0, 0) = 10.0f;
  const Tensor out = avg_pool(eng, in, 2);
  EXPECT_EQ(out.height(), 2);
  EXPECT_EQ(out.width(), 2);
  EXPECT_NEAR(out.at(0, 0, 0), (10.0f + 2.0f * 3) / 4.0f, 1e-6);
  EXPECT_NEAR(out.at(0, 1, 1), 2.0f, 1e-6);
}

TEST(WindowSum, RespectsBounds) {
  GpuEngine eng = clean_engine();
  Tensor t(1, 3, 3);
  for (auto& v : t.data()) v = 1.0f;
  EXPECT_FLOAT_EQ(window_sum(eng, t, 0, 0, 2, 0, 2), 4.0f);
  EXPECT_FLOAT_EQ(window_sum(eng, t, 0, 1, 1, 0, 3), 0.0f);  // empty rows
}

TEST(ColCentroid, MassWeightedColumn) {
  GpuEngine eng = clean_engine();
  Tensor t(1, 1, 5);
  t.at(0, 0, 1) = 1.0f;
  t.at(0, 0, 3) = 3.0f;
  const CentroidResult r = col_centroid(eng, t, 0, 0, 1, 0, 5);
  EXPECT_FLOAT_EQ(r.mass, 4.0f);
  EXPECT_NEAR(r.centroid, (1.0f + 9.0f) / 4.0f, 1e-6);
}

TEST(ColCentroid, EmptyWindowInvalid) {
  GpuEngine eng = clean_engine();
  Tensor t(1, 2, 2);
  const CentroidResult r = col_centroid(eng, t, 0, 0, 2, 0, 2);
  EXPECT_FLOAT_EQ(r.centroid, -1.0f);
}

TEST(FullyConnected, MatVecWithBiasAndRelu) {
  GpuEngine eng = clean_engine();
  // out0 = relu(1*1 + 2*2 + 1) = 6; out1 = relu(-10) = 0.
  const auto out = fully_connected(eng, {1.0f, 2.0f},
                                   {1.0f, 2.0f, 0.0f, 0.0f}, {1.0f, -10.0f});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(FullyConnected, NoReluKeepsNegative) {
  GpuEngine eng = clean_engine();
  const auto out =
      fully_connected(eng, {1.0f}, {1.0f}, {-5.0f}, /*apply_relu=*/false);
  EXPECT_FLOAT_EQ(out[0], -4.0f);
}

TEST(FaultPropagation, PermanentFmaccCorruptsConvOutput) {
  GpuEngine clean = clean_engine();
  GpuEngine faulty;
  FaultPlan plan;
  plan.kind = FaultModelKind::kPermanent;
  plan.domain = FaultDomain::kGpu;
  plan.target_opcode = static_cast<int>(GpuOpcode::kFMacc);
  plan.bit = 22;
  faulty.configure(plan, 1, never_lethal());

  Tensor in(1, 4, 4);
  for (std::size_t i = 0; i < in.data().size(); ++i) {
    in.data()[i] = 0.1f * static_cast<float>(i % 7);
  }
  const std::vector<float> box(9, 1.0f / 9.0f);
  const Tensor a = conv2d_plane(clean, in, box, 1);
  const Tensor b = conv2d_plane(faulty, in, box, 1);
  EXPECT_NE(a.data(), b.data());
  EXPECT_GT(faulty.corruption_count(), 0u);
}

TEST(FaultPropagation, TransientHitsOneElementOnly) {
  GpuEngine clean = clean_engine();
  GpuEngine faulty;
  FaultPlan plan;
  plan.kind = FaultModelKind::kTransient;
  plan.domain = FaultDomain::kGpu;
  plan.bit = 30;
  // Target an index inside the FC exec stream (the first 24 dynamic
  // instructions are the bulk operand loads).
  plan.target_dyn_index = 30;
  faulty.configure(plan, 1, never_lethal());

  std::vector<float> in(8, 0.5f);
  std::vector<float> w(16, 0.25f);
  std::vector<float> bias(2, 0.0f);
  const auto a = fully_connected(clean, in, w, bias);
  const auto b = fully_connected(faulty, in, w, bias);
  int mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) mismatches += a[i] != b[i];
  EXPECT_EQ(mismatches, 1);
}


// --- Block accounting: the clean path equals the scalar exec path. ---------

using testing_blocks::every_index;
using testing_blocks::expect_scalar_path_identical;
using testing_blocks::float_bits;

Tensor random_tensor(int c, int h, int w, std::uint64_t seed) {
  Tensor t(c, h, w);
  Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 2.0));
  t.data()[1] = 0.0f;
  t.data()[2] = -0.0f;
  return t;
}

/// Bits and shape of a tensor, for exact comparison.
struct TensorBits {
  std::vector<int> shape;
  std::vector<std::uint32_t> bits;
  bool operator==(const TensorBits&) const = default;
};

TensorBits tensor_bits(const Tensor& t) {
  return {{t.channels(), t.height(), t.width()}, float_bits(t.data())};
}

/// Runs `kernel` once on a clean engine to size the transient sweep, then
/// checks the scalar path at every index.
template <typename Kernel>
void expect_blocks_exact(Kernel&& kernel) {
  GpuEngine probe;
  probe.configure({}, 0);
  kernel(probe);
  expect_scalar_path_identical(kernel,
                               every_index(probe.total_dyn_instructions()));
}

TEST(BlockEquivalence, ImageRowsToTensor) {
  Image img(7, 5);
  Rng rng(3);
  for (auto& b : img.bytes()) b = static_cast<std::uint8_t>(rng() & 0xFF);
  expect_blocks_exact([&](GpuEngine& eng) {
    std::vector<TensorBits> out;
    out.push_back(tensor_bits(image_rows_to_tensor(eng, img, 1, 4)));
    out.push_back(
        tensor_bits(image_rows_to_tensor(eng, img, 0, img.height())));
    out.push_back(tensor_bits(image_rows_to_tensor(eng, img, 2, 2)));
    return out;
  });
}

TEST(BlockEquivalence, Conv2dPlane) {
  const Tensor plane = random_tensor(1, 5, 7, 11);
  std::vector<float> k3(9), k5(25);
  Rng rng(5);
  for (auto& v : k3) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  for (auto& v : k5) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const Tensor thin = random_tensor(1, 1, 3, 12);
  expect_blocks_exact([&](GpuEngine& eng) {
    std::vector<TensorBits> out;
    out.push_back(tensor_bits(conv2d_plane(eng, plane, k3, 1)));
    out.push_back(tensor_bits(conv2d_plane(eng, plane, k5, 2)));
    out.push_back(tensor_bits(conv2d_plane(eng, thin, k5, 2)));
    return out;
  });
}

TEST(BlockEquivalence, AvgPool) {
  const Tensor t = random_tensor(3, 9, 10, 21);
  expect_blocks_exact([&](GpuEngine& eng) {
    std::vector<TensorBits> out;
    out.push_back(tensor_bits(avg_pool(eng, t, 2)));
    out.push_back(tensor_bits(avg_pool(eng, t, 4)));
    return out;
  });
}

TEST(BlockEquivalence, WindowSumAndColCentroid) {
  const Tensor t = random_tensor(2, 6, 8, 31);
  Tensor zeros(1, 3, 4);
  expect_blocks_exact([&](GpuEngine& eng) {
    std::vector<float> out;
    out.push_back(window_sum(eng, t, 1, 1, 5, 2, 7));
    out.push_back(window_sum(eng, t, 0, 3, 4, 0, 8));
    out.push_back(window_sum(eng, t, 0, 2, 2, 0, 8));  // no rows
    out.push_back(window_sum(eng, t, 0, 4, 2, 5, 1));  // reversed bounds
    for (const CentroidResult r :
         {col_centroid(eng, t, 1, 0, 6, 1, 5), col_centroid(eng, t, 0, 2, 3, 3, 8),
          col_centroid(eng, zeros, 0, 0, 3, 0, 4),
          col_centroid(eng, t, 0, 1, 1, 0, 8)}) {
      out.push_back(r.mass);
      out.push_back(r.centroid);
    }
    return float_bits(out);
  });
}

}  // namespace
}  // namespace dav
