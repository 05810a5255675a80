#include "tech/presets.hpp"

namespace pdn3d::tech {

DieTechnology dram_20nm(double vdd) {
  DieTechnology t;
  t.name = "dram_20nm";
  t.vdd = vdd;
  t.via_resistance = 0.05;
  t.pdn_layers = {
      MetalLayer{"M2", 0.285, RouteDirection::kHorizontal, 0.10, 0.25},
      MetalLayer{"M3", 0.138, RouteDirection::kVertical, 0.20, 0.45},
  };
  return t;
}

DieTechnology logic_28nm(double vdd) {
  DieTechnology t;
  t.name = "logic_28nm";
  t.vdd = vdd;
  t.via_resistance = 0.02;
  t.pdn_layers = {
      MetalLayer{"M5", 0.075, RouteDirection::kHorizontal, 0.30, 0.85},
      MetalLayer{"M6", 0.042, RouteDirection::kVertical, 0.40, 1.20},
  };
  return t;
}

InterconnectTech default_interconnect() {
  return InterconnectTech{};  // defaults in the struct definition
}

Technology ddr3_technology() {
  return Technology{dram_20nm(1.5), logic_28nm(1.5), default_interconnect(), EmTech{}};
}

Technology low_voltage_technology() {
  return Technology{dram_20nm(1.2), logic_28nm(1.2), default_interconnect(), EmTech{}};
}

}  // namespace pdn3d::tech
