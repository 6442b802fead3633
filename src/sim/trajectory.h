// Vehicle trajectories and the paper's divergence metric.
//
// A trajectory is the timestamped list of global ego positions sampled every
// simulation step (paper §V-B: traj = [pos_t | forall t]). The safety metric
// delta_pos(E, B) = max_t |traj^E_t - traj^B_t| compares an experimental run
// against a baseline; runs with delta_pos >= td are "trajectory violations".
#pragma once

#include <cstddef>
#include <vector>

#include "util/vec2.h"

namespace dav {

class Trajectory {
 public:
  void push(const Vec2& pos) { points_.push_back(pos); }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const Vec2& at(std::size_t i) const { return points_[i]; }
  const std::vector<Vec2>& points() const { return points_; }
  /// Mutable samples, for checkpoint adopt and the run-record decoder.
  std::vector<Vec2>& points() { return points_; }

 private:
  std::vector<Vec2> points_;
};

/// Maximum pointwise distance over the common prefix of the two trajectories.
/// (Runs that end early — e.g. stopped at a collision — are compared over the
/// steps both have.) Returns 0 for empty trajectories.
double max_divergence(const Trajectory& experimental, const Trajectory& baseline);

/// Pointwise mean of a set of trajectories, truncated to the shortest length.
/// This is the paper's "baseline trajectory" (mean of the golden runs).
Trajectory mean_trajectory(const std::vector<Trajectory>& runs);

}  // namespace dav
