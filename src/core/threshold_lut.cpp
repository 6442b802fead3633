#include "core/threshold_lut.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dav {

int BinAxis::index(double v) const {
  if (bins <= 1) return 0;
  const double t = (v - lo) / (hi - lo);
  const int i = static_cast<int>(std::floor(t * bins));
  return std::clamp(i, 0, bins - 1);
}

ThresholdLut::ThresholdLut(LutConfig cfg) : cfg_(cfg) {
  const std::size_t n_va =
      static_cast<std::size_t>(cfg_.speed.bins) * cfg_.accel.bins;
  const std::size_t n_wa =
      static_cast<std::size_t>(cfg_.yaw_rate.bins) * cfg_.yaw_accel.bins;
  max_throttle_.assign(n_va, -1.0);
  max_brake_.assign(n_va, -1.0);
  max_steer_.assign(n_wa, -1.0);
}

std::size_t ThresholdLut::lin_index(const BinAxis& a, const BinAxis& b,
                                    double va, double vb) const {
  return static_cast<std::size_t>(a.index(va)) * b.bins + b.index(vb);
}

void ThresholdLut::observe(const VehicleState& s, const ActuationDelta& d) {
  // Smear each observation into the 3x3 bin neighborhood: the training
  // scenarios cannot visit every (v, a) (or (omega, alpha)) combination
  // densely, and a fault-free blip observed at one operating point is
  // evidence about adjacent operating points too. Without smearing, sparse
  // bins keep near-zero thresholds and fire on fault-free mode changes.
  const int vi = cfg_.speed.index(s.v);
  const int ai = cfg_.accel.index(s.a);
  const int wi = cfg_.yaw_rate.index(s.omega);
  const int li = cfg_.yaw_accel.index(s.alpha);
  for (int dv = -1; dv <= 1; ++dv) {
    for (int da = -1; da <= 1; ++da) {
      const int v = std::clamp(vi + dv, 0, cfg_.speed.bins - 1);
      const int a = std::clamp(ai + da, 0, cfg_.accel.bins - 1);
      const std::size_t idx =
          static_cast<std::size_t>(v) * cfg_.accel.bins + a;
      max_throttle_[idx] = std::max(max_throttle_[idx], d.throttle);
      max_brake_[idx] = std::max(max_brake_[idx], d.brake);
      const int w = std::clamp(wi + dv, 0, cfg_.yaw_rate.bins - 1);
      const int l = std::clamp(li + da, 0, cfg_.yaw_accel.bins - 1);
      const std::size_t widx =
          static_cast<std::size_t>(w) * cfg_.yaw_accel.bins + l;
      max_steer_[widx] = std::max(max_steer_[widx], d.steer);
    }
  }
  global_throttle_ = std::max(global_throttle_, d.throttle);
  global_brake_ = std::max(global_brake_, d.brake);
  global_steer_ = std::max(global_steer_, d.steer);
  ++observations_;
}

ActuationDelta ThresholdLut::thresholds(const VehicleState& s) const {
  const std::size_t iva = lin_index(cfg_.speed, cfg_.accel, s.v, s.a);
  const std::size_t iwa =
      lin_index(cfg_.yaw_rate, cfg_.yaw_accel, s.omega, s.alpha);
  const auto pick = [&](double bin_max, double global, double floor_v) {
    const double base = bin_max >= 0.0 ? bin_max : global;
    return std::max(cfg_.margin * base, floor_v);
  };
  return {pick(max_throttle_[iva], global_throttle_, cfg_.floor_throttle),
          pick(max_brake_[iva], global_brake_, cfg_.floor_brake),
          pick(max_steer_[iwa], global_steer_, cfg_.floor_steer)};
}

void ThresholdLut::save(std::ostream& out) const {
  out << "diverseav-lut 1\n";
  const auto axis = [&](const BinAxis& a) {
    out << a.lo << ' ' << a.hi << ' ' << a.bins << '\n';
  };
  axis(cfg_.speed);
  axis(cfg_.accel);
  axis(cfg_.yaw_rate);
  axis(cfg_.yaw_accel);
  out << cfg_.margin << ' ' << cfg_.floor_throttle << ' ' << cfg_.floor_brake
      << ' ' << cfg_.floor_steer << '\n';
  out << global_throttle_ << ' ' << global_brake_ << ' ' << global_steer_
      << ' ' << observations_ << '\n';
  const auto dump = [&](const std::vector<double>& v) {
    out << v.size();
    for (double x : v) out << ' ' << x;
    out << '\n';
  };
  dump(max_throttle_);
  dump(max_brake_);
  dump(max_steer_);
}

ThresholdLut ThresholdLut::load(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "diverseav-lut" || version != 1) {
    throw std::runtime_error("ThresholdLut::load: bad header");
  }
  LutConfig cfg;
  // A LUT arrives as text inside run configs shipped to workers: bound the
  // bin counts before they size the tables.
  constexpr int kMaxBins = 1024;
  const auto axis = [&](BinAxis& a) {
    in >> a.lo >> a.hi >> a.bins;
    if (in && (a.bins < 1 || a.bins > kMaxBins)) {
      throw std::runtime_error("ThresholdLut::load: implausible bin count");
    }
  };
  axis(cfg.speed);
  axis(cfg.accel);
  axis(cfg.yaw_rate);
  axis(cfg.yaw_accel);
  in >> cfg.margin >> cfg.floor_throttle >> cfg.floor_brake >>
      cfg.floor_steer;
  ThresholdLut lut(cfg);
  in >> lut.global_throttle_ >> lut.global_brake_ >> lut.global_steer_ >>
      lut.observations_;
  const auto slurp = [&](std::vector<double>& v) {
    std::size_t n = 0;
    in >> n;
    if (n != v.size()) {
      throw std::runtime_error("ThresholdLut::load: bin count mismatch");
    }
    for (auto& x : v) in >> x;
  };
  slurp(lut.max_throttle_);
  slurp(lut.max_brake_);
  slurp(lut.max_steer_);
  if (!in) throw std::runtime_error("ThresholdLut::load: truncated input");
  return lut;
}

std::size_t ThresholdLut::trained_bins() const {
  std::size_t n = 0;
  for (double v : max_throttle_) n += v >= 0.0 ? 1 : 0;
  for (double v : max_steer_) n += v >= 0.0 ? 1 : 0;
  return n;
}

}  // namespace dav
