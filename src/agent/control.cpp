#include "agent/control.h"

#include <cmath>

#include "agent/calc.h"

namespace dav {

RoutePlanner::RoutePlanner(CpuEngine& eng, const RoadMap* map,
                           double mission_speed, double start_s)
    : eng_(eng), map_(map), mission_speed_(mission_speed), start_s_(start_s),
      s_est_(start_s) {}

double RoutePlanner::plan_cruise(double v_meas, double dt) {
  CpuCalc c(eng_);
  c.call();
  // Dead-reckon progress along the route (persistent state).
  s_est_ = c.fma(c.load(v_meas), dt, c.load(s_est_));
  c.store();
  double limit = mission_speed_;
  if (map_ != nullptr) {
    limit = c.min(limit, c.load(map_->speed_limit_at(s_est_, mission_speed_)));
    // Map-based cornering envelope: scan the curvature over a lookahead
    // horizon (with margin for dead-reckoning drift) and cap the speed so
    // lateral acceleration stays within the comfort envelope.
    for (double ahead = 0.0; ahead <= 30.0; ahead += 7.5) {
      c.loop_iter();
      const double kappa =
          c.abs(c.load(map_->route().curvature_at(s_est_ + ahead)));
      if (c.less(1e-4, kappa)) {
        limit = c.min(limit, c.sqrt(c.div(lat_accel_max_, kappa)));
      }
    }
  }
  c.ret();
  return limit;
}

ControlUnit::ControlUnit(CpuEngine& eng, ControlConfig cfg)
    : eng_(eng), cfg_(cfg) {}

ControlSnapshot ControlUnit::snapshot() const {
  ControlSnapshot s;
  s.integral = integral_;
  s.steer_ema = steer_ema_;
  s.throttle_ema = throttle_ema_;
  s.brake_ema = brake_ema_;
  s.prev_v_tgt = prev_v_tgt_;
  s.first_step = first_step_;
  s.stopped = stopped_;
  return s;
}

void ControlUnit::restore(const ControlSnapshot& s) {
  integral_ = s.integral;
  steer_ema_ = s.steer_ema;
  throttle_ema_ = s.throttle_ema;
  brake_ema_ = s.brake_ema;
  prev_v_tgt_ = s.prev_v_tgt;
  first_step_ = s.first_step;
  stopped_ = s.stopped;
}

Actuation ControlUnit::act(const Waypoints& wps, double v_meas, double dt,
                           double cpu_gain) {
  CpuCalc c(eng_);
  c.call();

  // --- Waypoint tracker: decode target speed from spacing. -----------------
  double spacing_sum = 0.0;
  Vec2 prev{0.0, 0.0};
  for (const Vec2& wp : wps.pts) {
    c.loop_iter();
    const double dx = c.sub(c.load(wp.x), prev.x);
    const double dy = c.sub(c.load(wp.y), prev.y);
    spacing_sum = c.add(spacing_sum, c.sqrt(c.fma(dx, dx, dy * dy)));
    prev = wp;
  }
  const double spacing = c.div(spacing_sum, 4.0);
  double v_tgt = c.mul(c.div(spacing, cfg_.wp_dt), cpu_gain);
  // A near-degenerate spacing encodes "stop"; the standstill latch adds
  // hysteresis so the command does not flip-flop on perception noise right
  // at the stop threshold.
  if (c.less(spacing, 0.16)) v_tgt = 0.0;
  if (stopped_) {
    if (c.less(1.2, v_tgt)) {
      stopped_ = false;
    } else {
      v_tgt = 0.0;
    }
  } else if (c.less(v_tgt, 0.5) && c.less(v_meas, 0.8)) {
    stopped_ = true;
    v_tgt = 0.0;
  }
  c.store();
  if (stopped_) {
    // Deterministic hold: firm brake, parked steering.
    integral_ = 0.0;
    steer_ema_ = 0.0;
    prev_v_tgt_ = 0.0;
    throttle_ema_ = 0.0;
    brake_ema_ = 0.45;
    c.ret();
    return Actuation{0.0, 0.45, 0.0};
  }
  // Mild slew limiting on the target (tracker state). Seed the slew state
  // from the measured speed on the first step so start-up is smooth.
  if (first_step_) {
    first_step_ = false;
    prev_v_tgt_ = v_meas;
  }
  v_tgt = c.clamp(v_tgt, prev_v_tgt_ - 25.0 * dt, prev_v_tgt_ + 15.0 * dt);
  prev_v_tgt_ = v_tgt;
  c.store();

  // --- PI speed loop. --------------------------------------------------------
  Actuation cmd;
  const double err = c.sub(v_tgt, c.load(v_meas));
  integral_ = c.clamp(c.fma(err, dt, c.load(integral_)),
                      -cfg_.integral_limit, cfg_.integral_limit);
  c.store();
  double throttle_raw = 0.0;
  double brake_raw = 0.0;
  if (c.less(0.0, err)) {
    throttle_raw =
        c.clamp(c.fma(cfg_.kp_speed, err, c.mul(cfg_.ki_speed, integral_)),
                0.0, 1.0);
  } else {
    brake_raw = c.mul(cfg_.kb_speed, c.neg(err));
    // Full-stop intent: press firmly so the vehicle actually halts.
    if (c.less(v_tgt, 0.5)) brake_raw = c.add(brake_raw, 0.25);
    brake_raw = c.clamp(brake_raw, 0.0, 1.0);
  }
  // Pedal smoothing (persistent state): damps fault-free jitter from noisy
  // perception; a fault-induced offset persists in the filter state.
  const double ps = cfg_.pedal_smooth;
  throttle_ema_ = c.fma(1.0 - ps, c.sub(throttle_raw, throttle_ema_),
                        c.load(throttle_ema_));
  brake_ema_ =
      c.fma(1.0 - ps, c.sub(brake_raw, brake_ema_), c.load(brake_ema_));
  c.store();
  cmd.throttle = c.clamp(throttle_ema_, 0.0, 1.0);
  // Hard braking blends continuously past the filter (safety over
  // smoothness, without a discontinuity that would desynchronize replicas).
  const double urgency = c.clamp(c.div(c.sub(brake_raw, 0.5), 0.3), 0.0, 1.0);
  brake_ema_ = c.fma(urgency, c.sub(brake_raw, brake_ema_), c.load(brake_ema_));
  c.store();
  cmd.brake = c.clamp(brake_ema_, 0.0, 1.0);

  // --- Pure-pursuit steering on a speed-scaled lookahead waypoint. ----------
  const double lookahead = c.max(2.2, c.mul(0.5, v_meas));
  Vec2 target = wps.pts.back();
  for (const Vec2& wp : wps.pts) {
    c.loop_iter();
    if (c.less(lookahead, wp.x)) {
      target = wp;
      break;
    }
  }
  // The denominator floor keeps the curvature bounded when waypoints bunch
  // up at low speed; the speed fade parks the steering near standstill
  // (pure pursuit is degenerate there and would flail on perception noise).
  const double denom = c.fma(target.x, target.x, target.y * target.y);
  const double curvature = c.div(c.mul(2.0, target.y), c.max(denom, 4.0));
  const double steer_angle = c.atan2(c.mul(curvature, cfg_.wheelbase), 1.0);
  const double low_speed_fade =
      c.clamp(c.div(c.sub(v_meas, 1.2), 2.0), 0.0, 1.0);
  const double steer_raw = c.mul(
      c.clamp(c.div(steer_angle, cfg_.max_steer_angle), -1.0, 1.0),
      low_speed_fade);
  steer_ema_ = c.fma(1.0 - cfg_.steer_smooth, c.sub(steer_raw, steer_ema_),
                     c.load(steer_ema_));
  c.store();
  cmd.steer = c.clamp(steer_ema_, -1.0, 1.0);

  c.ret();
  return cmd;
}

}  // namespace dav
