// Longitudinal vehicle and wheel dynamics for the brake-by-wire study.
//
// A quarter-car-per-wheel model: the body decelerates under the sum of the
// four tyre forces; each wheel spins down under its brake torque; tyre force
// follows a Burckhardt friction curve over longitudinal slip. Deliberately
// simple — just rich enough that losing a wheel node measurably degrades
// braking (the paper's "degraded functionality mode") and that an ABS-style
// slip controller has something to regulate.
#pragma once

#include <array>
#include <cstddef>

namespace nlft::bbw {

/// Wheel indices used throughout the BBW code.
enum Wheel : std::size_t { FrontLeft = 0, FrontRight = 1, RearLeft = 2, RearRight = 3 };
inline constexpr std::size_t kWheelCount = 4;

struct VehicleParams {
  double massKg = 1500.0;
  double wheelRadiusM = 0.30;
  double wheelInertia = 1.2;        ///< kg m^2
  double gravity = 9.81;
  // Burckhardt dry-asphalt friction coefficients: mu(s) = c1(1-e^{-c2 s}) - c3 s.
  double burckhardtC1 = 1.2801;
  double burckhardtC2 = 23.99;
  double burckhardtC3 = 0.52;
  double rollingResistance = 0.015;  ///< fraction of weight, always opposing motion
  /// Per-wheel road-friction scale (1.0 = the Burckhardt curve as-is);
  /// lets scenarios model split-mu surfaces, e.g. right wheels on ice.
  std::array<double, 4> frictionScale{1.0, 1.0, 1.0, 1.0};

  friend bool operator==(const VehicleParams&, const VehicleParams&) = default;
};

/// Longitudinal friction coefficient at a given slip (>= 0).
[[nodiscard]] double burckhardtMu(const VehicleParams& params, double slip);

class Vehicle {
 public:
  explicit Vehicle(VehicleParams params = {});

  /// Resets to an initial speed (m/s); wheels start rolling freely.
  void reset(double speedMps);

  /// Sets the brake torque command (N m, >= 0) of one wheel; the value holds
  /// until overwritten (zero-order hold, like a real actuator interface).
  void setBrakeTorque(std::size_t wheel, double torqueNm);

  /// Replaces the kinematic state (speed, distance, wheel speeds, brake
  /// torques) with `other`'s; the parameters stay this vehicle's own.
  void copyStateFrom(const Vehicle& other);

  /// Advances the dynamics by dt seconds (fixed-step forward Euler; stable
  /// for dt <= ~2 ms with these parameters).
  void step(double dtSeconds);

  [[nodiscard]] double speedMps() const { return speed_; }
  [[nodiscard]] double distanceM() const { return distance_; }
  [[nodiscard]] bool stopped() const { return speed_ <= 0.01; }
  [[nodiscard]] double wheelSpeedRadps(std::size_t wheel) const { return omega_[wheel]; }
  /// Longitudinal slip of a wheel in [0, 1].
  [[nodiscard]] double slip(std::size_t wheel) const;
  [[nodiscard]] double brakeTorque(std::size_t wheel) const { return torque_[wheel]; }
  [[nodiscard]] const VehicleParams& params() const { return params_; }

 private:
  VehicleParams params_;
  double speed_ = 0.0;
  double distance_ = 0.0;
  std::array<double, kWheelCount> omega_{};
  std::array<double, kWheelCount> torque_{};
};

}  // namespace nlft::bbw
