#include <gtest/gtest.h>

#include <cmath>

#include "agent/control.h"

namespace dav {
namespace {

constexpr double kDt = 0.1;

CpuEngine clean_engine() {
  CpuEngine eng;
  eng.configure({}, 0);
  return eng;
}

Waypoints straight_waypoints(double v_des, double lateral = 0.0,
                             double wp_dt = 0.5) {
  Waypoints wps;
  const double spacing = std::max(0.12, v_des * wp_dt);
  for (int i = 0; i < 4; ++i) {
    wps.pts[static_cast<std::size_t>(i)] = {spacing * (i + 1), lateral};
  }
  return wps;
}

TEST(RoutePlannerTest, RespectsSpeedLimit) {
  CpuEngine eng = clean_engine();
  RoadMap map(Polyline({{0, 0}, {500, 0}}), 3.5, 1, 0);
  map.add_speed_limit({0.0, 1e9, 9.0});
  RoutePlanner planner(eng, &map, 15.0, 0.0);
  EXPECT_NEAR(planner.plan_cruise(5.0, kDt), 9.0, 1e-9);
}

TEST(RoutePlannerTest, MissionSpeedWhenNoLimit) {
  CpuEngine eng = clean_engine();
  RoadMap map(Polyline({{0, 0}, {500, 0}}), 3.5, 1, 0);
  RoutePlanner planner(eng, &map, 12.0, 0.0);
  EXPECT_NEAR(planner.plan_cruise(5.0, kDt), 12.0, 1e-9);
}

TEST(RoutePlannerTest, CorneringEnvelopeSlowsForCurves) {
  CpuEngine eng = clean_engine();
  const Polyline route =
      RouteBuilder().straight(40.0).turn(M_PI / 2, 18.0).straight(40.0).build();
  RoadMap map(route, 3.5, 1, 0);
  RoutePlanner planner(eng, &map, 15.0, /*start_s=*/20.0);
  // 20 m before the curve: the 30 m lookahead sees it; sqrt(2.3*18) ~ 6.4.
  const double cruise = planner.plan_cruise(10.0, kDt);
  EXPECT_LT(cruise, 8.0);
  EXPECT_GT(cruise, 4.0);
}

TEST(RoutePlannerTest, DeadReckonsProgress) {
  CpuEngine eng = clean_engine();
  RoadMap map(Polyline({{0, 0}, {500, 0}}), 3.5, 1, 0);
  RoutePlanner planner(eng, &map, 12.0, 5.0);
  for (int i = 0; i < 10; ++i) planner.plan_cruise(10.0, kDt);
  EXPECT_NEAR(planner.progress(), 5.0 + 10.0 * 10 * kDt, 0.5);
}

TEST(ControlUnit, AcceleratesTowardTarget) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  Actuation cmd;
  for (int i = 0; i < 20; ++i) {
    cmd = ctrl.act(straight_waypoints(10.0), /*v_meas=*/5.0, kDt, 1.0);
  }
  EXPECT_GT(cmd.throttle, 0.2);
  EXPECT_DOUBLE_EQ(cmd.brake, 0.0);
}

TEST(ControlUnit, BrakesWhenTooFast) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  Actuation cmd;
  for (int i = 0; i < 20; ++i) {
    cmd = ctrl.act(straight_waypoints(4.0), /*v_meas=*/10.0, kDt, 1.0);
  }
  EXPECT_GT(cmd.brake, 0.3);
  EXPECT_LT(cmd.throttle, 0.05);
}

TEST(ControlUnit, DecodesTargetSpeedFromSpacing) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  // v_meas == encoded speed: neither strong throttle nor brake.
  Actuation cmd;
  for (int i = 0; i < 20; ++i) {
    cmd = ctrl.act(straight_waypoints(8.0), 8.0, kDt, 1.0);
  }
  EXPECT_LT(cmd.throttle, 0.25);
  EXPECT_LT(cmd.brake, 0.1);
}

TEST(ControlUnit, SteersTowardLateralOffset) {
  CpuEngine eng = clean_engine();
  ControlUnit left_ctrl(eng, {});
  ControlUnit right_ctrl(eng, {});
  Actuation left;
  Actuation right;
  for (int i = 0; i < 10; ++i) {
    left = left_ctrl.act(straight_waypoints(8.0, +1.0), 8.0, kDt, 1.0);
  }
  for (int i = 0; i < 10; ++i) {
    right = right_ctrl.act(straight_waypoints(8.0, -1.0), 8.0, kDt, 1.0);
  }
  EXPECT_GT(left.steer, 0.05);
  EXPECT_LT(right.steer, -0.05);
}

TEST(ControlUnit, SteeringFadesAtCrawl) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  Actuation cmd;
  for (int i = 0; i < 10; ++i) {
    cmd = ctrl.act(straight_waypoints(1.0, +1.5), /*v_meas=*/1.0, kDt, 1.0);
  }
  EXPECT_NEAR(cmd.steer, 0.0, 1e-6);
}

TEST(ControlUnit, StandstillLatchHoldsDeterministically) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  // Stop intent at low measured speed -> latch engages.
  Actuation cmd;
  for (int i = 0; i < 5; ++i) {
    cmd = ctrl.act(straight_waypoints(0.0), /*v_meas=*/0.3, kDt, 1.0);
  }
  EXPECT_DOUBLE_EQ(cmd.brake, 0.45);
  EXPECT_DOUBLE_EQ(cmd.throttle, 0.0);
  EXPECT_DOUBLE_EQ(cmd.steer, 0.0);
  // Small target below the hysteresis band stays latched.
  cmd = ctrl.act(straight_waypoints(0.8), 0.0, kDt, 1.0);
  EXPECT_DOUBLE_EQ(cmd.brake, 0.45);
  // A clear go signal releases the latch.
  for (int i = 0; i < 10; ++i) {
    cmd = ctrl.act(straight_waypoints(8.0), 0.0, kDt, 1.0);
  }
  EXPECT_GT(cmd.throttle, 0.1);
  EXPECT_NEAR(cmd.brake, 0.0, 1e-3);  // pedal EMA decays exponentially
}

TEST(ControlUnit, FirstStepSeedsSlewFromMeasuredSpeed) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  // Matching target: the very first command must not brake hard.
  const Actuation cmd = ctrl.act(straight_waypoints(10.0), 10.0, kDt, 1.0);
  EXPECT_LT(cmd.brake, 0.2);
}

TEST(ControlUnit, CpuGainScalesTarget) {
  CpuEngine eng = clean_engine();
  ControlUnit a(eng, {});
  Actuation with_gain;
  for (int i = 0; i < 15; ++i) {
    with_gain = a.act(straight_waypoints(8.0), 8.0, kDt, /*cpu_gain=*/1.5);
  }
  // Gain 1.5 raises the decoded target -> throttle rises.
  EXPECT_GT(with_gain.throttle, 0.15);
}

TEST(ControlUnit, InstrumentationCountsGrow) {
  CpuEngine eng = clean_engine();
  ControlUnit ctrl(eng, {});
  ctrl.act(straight_waypoints(8.0), 8.0, kDt, 1.0);
  EXPECT_GT(eng.total_dyn_instructions(), 50u);
  EXPECT_GT(eng.op_count(CpuOpcode::kLoad), 10u);
  EXPECT_GT(eng.op_count(CpuOpcode::kLoopCnt), 0u);
}

}  // namespace
}  // namespace dav
