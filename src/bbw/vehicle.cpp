#include "bbw/vehicle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nlft::bbw {

double burckhardtMu(const VehicleParams& params, double slip) {
  slip = std::clamp(slip, 0.0, 1.0);
  return params.burckhardtC1 * (1.0 - std::exp(-params.burckhardtC2 * slip)) -
         params.burckhardtC3 * slip;
}

Vehicle::Vehicle(VehicleParams params) : params_{params} {}

void Vehicle::reset(double speedMps) {
  if (speedMps < 0.0) throw std::invalid_argument("Vehicle: negative speed");
  speed_ = speedMps;
  distance_ = 0.0;
  omega_.fill(speedMps / params_.wheelRadiusM);
  torque_.fill(0.0);
}

void Vehicle::copyStateFrom(const Vehicle& other) {
  speed_ = other.speed_;
  distance_ = other.distance_;
  omega_ = other.omega_;
  torque_ = other.torque_;
}

void Vehicle::setBrakeTorque(std::size_t wheel, double torqueNm) {
  torque_[wheel] = std::max(0.0, torqueNm);
}

double Vehicle::slip(std::size_t wheel) const {
  if (speed_ < 0.1) return 0.0;
  const double wheelLinear = omega_[wheel] * params_.wheelRadiusM;
  return std::clamp((speed_ - wheelLinear) / speed_, 0.0, 1.0);
}

void Vehicle::step(double dtSeconds) {
  if (speed_ <= 0.0) return;

  const double normalPerWheel = params_.massKg * params_.gravity / kWheelCount;
  double totalBrakeForce = 0.0;
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    const double s = slip(w);
    const double tyreForce =
        params_.frictionScale[w] * burckhardtMu(params_, s) * normalPerWheel;
    totalBrakeForce += tyreForce;
    // Wheel spin: I w' = F_tyre * R - T_brake (tyre force spins the wheel up
    // toward vehicle speed; brake torque spins it down).
    const double omegaDot = (tyreForce * params_.wheelRadiusM - torque_[w]) / params_.wheelInertia;
    omega_[w] = std::max(0.0, omega_[w] + omegaDot * dtSeconds);
    // A wheel cannot spin faster than free rolling (no drive torque).
    omega_[w] = std::min(omega_[w], speed_ / params_.wheelRadiusM);
  }

  const double rolling = params_.rollingResistance * params_.massKg * params_.gravity;
  const double decel = (totalBrakeForce + rolling) / params_.massKg;
  const double newSpeed = std::max(0.0, speed_ - decel * dtSeconds);
  distance_ += 0.5 * (speed_ + newSpeed) * dtSeconds;
  speed_ = newSpeed;
  if (speed_ <= 0.01) speed_ = 0.0;
}

}  // namespace nlft::bbw
