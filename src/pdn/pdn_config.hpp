#pragma once

/// @file pdn_config.hpp
/// @brief The design/packaging knobs the paper co-optimizes (Table 8).

#include <string>

namespace pdn3d::pdn {

/// Where PG TSVs are placed on the DRAM dies (Table 8 "TSV location").
enum class TsvLocation {
  kCenter,       ///< compact cluster in the center I/O region (lowest cost)
  kEdge,         ///< rows along the top/bottom die edges (needs KOZ, costly)
  kDistributed,  ///< uniform field between banks (HMC style, costliest)
};

/// Die bonding style. kF2F means F2F within die pairs (1,2) and (3,4) with
/// B2B between pairs -- the paper's "F2F+B2B".
enum class BondingStyle { kF2B, kF2F };

/// Whether the DRAM stack sits on its own substrate or on the host logic die.
enum class Mounting { kOffChip, kOnChip };

/// Redistribution-layer options (Figure 6).
enum class RdlMode {
  kNone,
  kBottomOnly,  ///< RDL between logic/package and the bottom DRAM die
  kAllDies,     ///< backside RDL on every DRAM die
};

[[nodiscard]] std::string to_string(TsvLocation l);
[[nodiscard]] std::string to_string(BondingStyle b);
[[nodiscard]] std::string to_string(Mounting m);
[[nodiscard]] std::string to_string(RdlMode r);

/// One point in the design/packaging space.
struct PdnConfig {
  double m2_usage = 0.10;  ///< DRAM M2 VDD area fraction (paper range 10-20%)
  double m3_usage = 0.20;  ///< DRAM M3 VDD area fraction (paper range 10-40%)
  int tsv_count = 33;      ///< PG TSVs per die-to-die interface (range 15-480)
  TsvLocation tsv_location = TsvLocation::kEdge;
  /// TSV location on the logic-die side. Only meaningful with an RDL, which
  /// can reroute between mismatched patterns (Figure 6c); otherwise the
  /// builder uses tsv_location on both sides.
  TsvLocation logic_tsv_location = TsvLocation::kEdge;
  bool dedicated_tsvs = false;  ///< via-last TSVs bypassing the logic PDN
  BondingStyle bonding = BondingStyle::kF2B;
  RdlMode rdl = RdlMode::kNone;
  bool wire_bonding = false;  ///< backside bond wires to the package supply
  Mounting mounting = Mounting::kOffChip;
  bool align_tsvs_to_c4 = true;    ///< snap TSVs to the C4 grid (Figure 5)
  double metal_usage_scale = 1.0;  ///< Table 7's "1.5x PDN" multiplier

  [[nodiscard]] double effective_m2() const { return m2_usage * metal_usage_scale; }
  [[nodiscard]] double effective_m3() const { return m3_usage * metal_usage_scale; }

  /// Human-readable one-liner for logs and tables.
  [[nodiscard]] std::string summary() const;

  bool operator==(const PdnConfig&) const = default;
};

}  // namespace pdn3d::pdn
