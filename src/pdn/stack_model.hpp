#pragma once

/// @file stack_model.hpp
/// @brief The assembled 3D-stack resistive network (R-Mesh).
///
/// A StackModel is pure topology + element values: layer grids, two-terminal
/// resistors, and supply taps (resistors to the ideal VDD rail). The irdrop
/// module turns it into a linear system and solves it.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "pdn/layer_grid.hpp"

namespace pdn3d::pdn {

/// What a resistor element physically is -- used by current-crowding
/// analysis (Section 3.2 cites TSV current crowding) and netlist annotation.
enum class ElementKind {
  kMesh,     ///< in-plane PDN segment
  kVia,      ///< same-die inter-layer via array
  kTsv,      ///< PG TSV at a die-to-die interface
  kF2fVia,   ///< F2F via-field connection
  kC4,       ///< C4 bump / micro-bump interface
  kRdlVia,   ///< RDL backside-pad via
};

[[nodiscard]] std::string to_string(ElementKind k);

struct Resistor {
  std::size_t a = 0;
  std::size_t b = 0;
  double ohms = 0.0;
  ElementKind kind = ElementKind::kMesh;
};

/// Resistor from a node to the ideal VDD supply (package ball, bond wire...).
struct SupplyTap {
  std::size_t node = 0;
  double ohms = 0.0;
};

class StackModel {
 public:
  StackModel() = default;  ///< empty model (for default-constructed holders)
  explicit StackModel(double vdd) : vdd_(vdd) {}

  /// Register a new layer grid; assigns its node-id base. Returns its index.
  std::size_t add_grid(LayerGrid grid);

  void add_resistor(std::size_t a, std::size_t b, double ohms,
                    ElementKind kind = ElementKind::kMesh);
  /// Size the resistor list for @p count resistors in all, so a builder that
  /// knows its total adds them without regrowing the list.
  void reserve_resistors(std::size_t count) { resistors_.reserve(count); }
  [[nodiscard]] std::size_t resistor_capacity() const { return resistors_.capacity(); }
  void add_tap(std::size_t node, double ohms);

  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::span<const Resistor> resistors() const { return resistors_; }
  [[nodiscard]] std::span<const SupplyTap> taps() const { return taps_; }
  [[nodiscard]] const std::vector<LayerGrid>& grids() const { return grids_; }

  /// Overwrite element values *without* the add-time checks. These exist for
  /// the fault-injection test suite (and defect studies): they let a test
  /// plant a negative via resistance or NaN tap that add_resistor/add_tap
  /// reject, so the downstream validation/solver path can prove it catches
  /// the defect. Not for production model construction.
  void perturb_resistor(std::size_t index, double ohms);
  void perturb_tap(std::size_t index, double ohms);

  [[nodiscard]] bool has_grid(int die, int layer) const;

  /// Grid for (die, layer); throws std::out_of_range when absent.
  [[nodiscard]] const LayerGrid& grid(int die, int layer) const;

  /// Device-layer grid (layer 0) of a die: where current is injected and IR
  /// drop is measured.
  [[nodiscard]] const LayerGrid& device_grid(int die) const { return grid(die, 0); }

  /// Number of DRAM dies (die codes 0..n-1).
  [[nodiscard]] int dram_die_count() const { return dram_die_count_; }
  void set_dram_die_count(int n) { dram_die_count_ = n; }

  [[nodiscard]] bool has_logic() const { return has_grid(kLogicDie, 0); }

 private:
  double vdd_ = 1.0;
  std::size_t node_count_ = 0;
  std::vector<LayerGrid> grids_;
  std::vector<Resistor> resistors_;
  std::vector<SupplyTap> taps_;
  int dram_die_count_ = 0;
};

}  // namespace pdn3d::pdn
