// Brake-by-wire control algorithms.
//
// The central unit turns the pedal position into per-wheel brake torque
// requests (static front/rear proportioning); each wheel node runs an
// ABS-style slip controller that caps the applied torque when the wheel
// approaches lock-up. Both are pure functions of their inputs so that TEM
// replica determinism holds trivially.
#pragma once

#include <array>
#include <cstdint>

#include "bbw/vehicle.hpp"

namespace nlft::bbw {

struct CentralUnitConfig {
  double maxTotalForceN = 18000.0;  ///< total brake force at full pedal
  double frontShare = 0.6;          ///< front axle share of the total force
  double wheelRadiusM = 0.30;

  friend bool operator==(const CentralUnitConfig&, const CentralUnitConfig&) = default;
};

/// Pedal position [0,1] -> per-wheel brake torque request (N m).
[[nodiscard]] std::array<double, kWheelCount> distributeBrakeForce(
    const CentralUnitConfig& config, double pedal);

struct SlipControllerConfig {
  double targetSlip = 0.15;    ///< near the Burckhardt friction peak
  double releaseSlip = 0.25;   ///< above this the controller dumps torque hard
  double reduceFactor = 0.70;  ///< multiplicative torque reduction per period
  double recoverFactor = 1.15; ///< multiplicative torque recovery per period
};

/// One wheel node's slip-control state (the task's state data; under NLFT it
/// would be protected by the end-to-end mechanisms of Section 2.6).
class WheelSlipController {
 public:
  explicit WheelSlipController(SlipControllerConfig config = {});

  /// Computes the torque to apply this period from the CU request, the
  /// measured slip, and the internal anti-lock state.
  [[nodiscard]] double update(double requestedTorqueNm, double measuredSlip);

  /// Serialises the controller state (for duplex state re-synchronisation).
  [[nodiscard]] std::uint32_t packedState() const;
  void restoreState(std::uint32_t packed);

 private:
  SlipControllerConfig config_;
  double currentLimit_ = -1.0;  ///< < 0 means "no anti-lock limit active"
};

/// Fixed-point version of the wheel control law used by the interpreted-ISA
/// task (q8.8 arithmetic): must match update() bit-for-bit in behaviour so
/// fault-injection campaigns exercise the real algorithm.
[[nodiscard]] std::int32_t wheelControlFixedPoint(std::int32_t requestedTorqueQ8,
                                                  std::int32_t slipQ8,
                                                  std::int32_t currentLimitQ8,
                                                  std::int32_t* newLimitQ8);

}  // namespace nlft::bbw
