#include "pdn/stack_builder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdn/tsv_planner.hpp"

namespace pdn3d::pdn {

namespace {

constexpr int kRdlLayer = 2;  ///< DRAM RDL layer index (0 = M2, 1 = M3)

/// Grid dimensions for a die of w x h at the given pitch. The trailing
/// usage/thickness pair records the EM cross-section geometry the mesh will
/// be stamped with (see LayerGrid::vdd_usage).
LayerGrid make_grid(int die, int layer, std::string name, double w, double h, double pitch,
                    double off_x, double off_y, double usage, double thickness_um) {
  LayerGrid g;
  g.die = die;
  g.layer = layer;
  g.name = std::move(name);
  g.nx = std::max(2, static_cast<int>(std::lround(w / pitch)));
  g.ny = std::max(2, static_cast<int>(std::lround(h / pitch)));
  g.dx = w / g.nx;
  g.dy = h / g.ny;
  g.x0 = off_x;
  g.y0 = off_y;
  g.vdd_usage = usage;
  g.thickness_um = thickness_um;
  return g;
}

bool routes_horizontal(tech::RouteDirection dir) {
  return dir == tech::RouteDirection::kHorizontal || dir == tech::RouteDirection::kOmni;
}

bool routes_vertical(tech::RouteDirection dir) {
  return dir == tech::RouteDirection::kVertical || dir == tech::RouteDirection::kOmni;
}

/// Resistors add_layer_mesh stamps for @p g.
std::size_t layer_mesh_size(const LayerGrid& g, tech::RouteDirection dir) {
  const auto nx = static_cast<std::size_t>(g.nx);
  const auto ny = static_cast<std::size_t>(g.ny);
  return (routes_horizontal(dir) ? (nx - 1) * ny : 0) + (routes_vertical(dir) ? nx * (ny - 1) : 0);
}

/// Resistors add_via_array stamps from @p lo.
std::size_t via_array_size(const LayerGrid& lo) {
  return static_cast<std::size_t>(lo.nx) * static_cast<std::size_t>(lo.ny);
}

/// Stamp the in-plane stripe mesh of one layer.
void add_layer_mesh(StackModel& m, const LayerGrid& g, tech::RouteDirection dir,
                    double rs_over_usage) {
  const bool horizontal = routes_horizontal(dir);
  const bool vertical = routes_vertical(dir);
  // A bundle of stripes of total width (usage * cell_height) and length dx
  // has R = Rs * dx / (usage * dy); symmetrically for vertical.
  const double r_h = rs_over_usage * g.dx / g.dy;
  const double r_v = rs_over_usage * g.dy / g.dx;
  for (int j = 0; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      if (horizontal && i + 1 < g.nx) m.add_resistor(g.node(i, j), g.node(i + 1, j), r_h);
      if (vertical && j + 1 < g.ny) m.add_resistor(g.node(i, j), g.node(i, j + 1), r_v);
    }
  }
}

/// Connect two same-die layers with a via array at every node.
void add_via_array(StackModel& m, const LayerGrid& lo, const LayerGrid& hi, double via_r) {
  for (int j = 0; j < lo.ny; ++j) {
    for (int i = 0; i < lo.nx; ++i) {
      const auto p = lo.position(i, j);
      m.add_resistor(lo.node(i, j), hi.nearest(p.x, p.y), via_r, ElementKind::kVia);
    }
  }
}

struct Frame {
  double off_x = 0.0;
  double off_y = 0.0;

  [[nodiscard]] floorplan::Point to_global(floorplan::Point p) const {
    return {p.x + off_x, p.y + off_y};
  }
};

std::vector<floorplan::Point> to_global(const std::vector<floorplan::Point>& pts,
                                        const Frame& frame) {
  std::vector<floorplan::Point> out;
  out.reserve(pts.size());
  for (const auto& p : pts) out.push_back(frame.to_global(p));
  return out;
}

}  // namespace

BuiltStack build_stack(const StackSpec& spec, const PdnConfig& config) {
  if (config.tsv_count < 1) throw std::invalid_argument("build_stack: tsv_count must be >= 1");
  if (spec.num_dram_dies < 1) throw std::invalid_argument("build_stack: need at least one die");

  PDN3D_TRACE_SPAN_NAMED(span, "pdn/build_stack");
  static auto& m_builds = obs::counter("pdn.stacks_built");
  m_builds.add(1);

  const bool on_chip = config.mounting == Mounting::kOnChip;
  const tech::Technology& tech = spec.tech;
  const tech::InterconnectTech& ic = tech.interconnect;

  const double dram_w = spec.dram_fp.width();
  const double dram_h = spec.dram_fp.height();
  const double logic_w = spec.logic_fp.width();
  const double logic_h = spec.logic_fp.height();

  const double base_w = on_chip ? logic_w : dram_w;
  const double base_h = on_chip ? logic_h : dram_h;
  const double pkg_w = base_w + 2.0 * spec.package_margin;
  const double pkg_h = base_h + 2.0 * spec.package_margin;

  const Frame pkg_frame{0.0, 0.0};
  const Frame logic_frame{(pkg_w - logic_w) * 0.5, (pkg_h - logic_h) * 0.5};
  const Frame dram_frame{(pkg_w - dram_w) * 0.5, (pkg_h - dram_h) * 0.5};

  StackModel model(tech.dram.vdd);
  model.set_dram_die_count(spec.num_dram_dies);

  // ---- Phase 1: create every layer grid (node-id layout is fixed after this;
  // references into the model stay valid from here on). ----------------------
  const double pkg_pitch = spec.grid_pitch * 2.0;
  model.add_grid(make_grid(kPackageDie, 0, "pkg/plane", pkg_w, pkg_h, pkg_pitch, 0.0, 0.0, 1.0,
                           tech.em.package_thickness_um));

  const int logic_layers = static_cast<int>(tech.logic.layer_count());
  if (on_chip) {
    for (int l = 0; l < logic_layers; ++l) {
      const auto& ml = tech.logic.layer(static_cast<std::size_t>(l));
      model.add_grid(make_grid(kLogicDie, l, "logic/" + ml.name, logic_w, logic_h,
                               spec.grid_pitch, logic_frame.off_x, logic_frame.off_y,
                               ml.default_vdd_usage, ml.thickness_um));
    }
  }

  const auto die_has_rdl = [&](int d) {
    return config.rdl == RdlMode::kAllDies || (config.rdl == RdlMode::kBottomOnly && d == 0);
  };
  for (int d = 0; d < spec.num_dram_dies; ++d) {
    const auto& l2 = tech.dram.layer(0);
    const auto& l3 = tech.dram.layer(1);
    model.add_grid(make_grid(d, 0, "dram" + std::to_string(d + 1) + "/" + l2.name, dram_w, dram_h,
                             spec.grid_pitch, dram_frame.off_x, dram_frame.off_y,
                             config.effective_m2(), l2.thickness_um));
    model.add_grid(make_grid(d, 1, "dram" + std::to_string(d + 1) + "/" + l3.name, dram_w, dram_h,
                             spec.grid_pitch, dram_frame.off_x, dram_frame.off_y,
                             config.effective_m3(), l3.thickness_um));
    if (die_has_rdl(d)) {
      model.add_grid(make_grid(d, kRdlLayer, "dram" + std::to_string(d + 1) + "/RDL", dram_w,
                               dram_h, spec.grid_pitch, dram_frame.off_x, dram_frame.off_y,
                               ic.rdl_vdd_usage, tech.em.rdl_thickness_um));
    }
  }

  // ---- Phase 2: TSV planning ------------------------------------------------
  const bool want_logic_pattern =
      config.rdl != RdlMode::kNone && config.logic_tsv_location != config.tsv_location;
  const std::vector<floorplan::Point> mem_sites_local =
      plan_tsv_sites(spec.dram_fp, config.tsv_location, config.tsv_count);
  const std::vector<floorplan::Point> bottom_sites_local =
      want_logic_pattern
          ? plan_tsv_sites(spec.dram_fp, config.logic_tsv_location, config.tsv_count)
          : mem_sites_local;

  std::vector<floorplan::Point> mem_sites = to_global(mem_sites_local, dram_frame);
  std::vector<floorplan::Point> bottom_sites = to_global(bottom_sites_local, dram_frame);

  // The C4 field the bottom interface must reach: logic-die C4s when mounted
  // on logic, package balls when off-chip.
  const std::vector<floorplan::Point> c4_global =
      on_chip ? to_global(c4_grid(logic_w, logic_h, spec.c4_pitch), logic_frame)
              : to_global(c4_grid(pkg_w, pkg_h, spec.bga_pitch), pkg_frame);

  BuildInfo info;
  info.tsvs_per_interface = config.tsv_count;
  // Alignment only matters at the supply-entry interface: upper die-to-die
  // TSVs land on each other by construction. An aligned design co-places each
  // bottom TSV with a C4 bump (zero lateral detour); a uniform-pitch design
  // pays a detour resistance through the receiving die's fine local wiring,
  // proportional to the TSV's nearest-C4 distance (Section 3.2 / Figure 5).
  // TSV positions themselves stay fixed by the DRAM pad pattern.
  std::vector<double> bottom_penalty(bottom_sites.size(), 0.0);
  if (!config.align_tsvs_to_c4) {
    const double ohm_per_mm =
        on_chip ? ic.misalign_detour_ohm_per_mm : ic.package_detour_ohm_per_mm;
    for (std::size_t i = 0; i < bottom_sites.size(); ++i) {
      const double dist = average_c4_distance({bottom_sites[i]}, c4_global);
      bottom_penalty[i] = ohm_per_mm * dist;
    }
    info.avg_c4_tsv_distance_mm = average_c4_distance(bottom_sites, c4_global);
  }

  // ---- Resistor count: what phases 2, 4 and 5 stamp, so the list is sized
  // once (capacity equal to size) instead of regrowing by doubling. --------
  const std::vector<floorplan::Point> logic_c4 =
      on_chip ? c4_grid(logic_w, logic_h, spec.c4_pitch) : std::vector<floorplan::Point>{};
  std::vector<floorplan::Point> rdl_taps_local = mem_sites_local;
  {
    const auto ring = edge_pad_ring(spec.dram_fp, spec.rdl_edge_pads_per_side);
    rdl_taps_local.insert(rdl_taps_local.end(), ring.begin(), ring.end());
  }
  const bool f2f = config.bonding == BondingStyle::kF2F;
  {
    std::size_t count = layer_mesh_size(model.grid(kPackageDie, 0), tech::RouteDirection::kOmni);
    if (on_chip) {
      for (int l = 0; l < logic_layers; ++l) {
        count += layer_mesh_size(model.grid(kLogicDie, l),
                                 tech.logic.layer(static_cast<std::size_t>(l)).direction);
        if (l + 1 < logic_layers) count += via_array_size(model.grid(kLogicDie, l));
      }
      count += logic_c4.size();
    }
    for (int d = 0; d < spec.num_dram_dies; ++d) {
      count += layer_mesh_size(model.grid(d, 0), tech.dram.layer(0).direction);
      count += layer_mesh_size(model.grid(d, 1), tech.dram.layer(1).direction);
      count += via_array_size(model.grid(d, 0));
      if (die_has_rdl(d)) {
        count += layer_mesh_size(model.grid(d, kRdlLayer), tech::RouteDirection::kOmni);
        count += rdl_taps_local.size();
      }
    }
    count += bottom_sites.size();
    for (int d = 0; d + 1 < spec.num_dram_dies; ++d) {
      count += f2f && (d % 2 == 0) ? via_array_size(model.grid(d, 1)) : mem_sites.size();
    }
    model.reserve_resistors(count);
  }

  // ---- Phase 3: stamp in-plane meshes, vias, and supply taps ---------------
  const LayerGrid& pkg_grid = model.grid(kPackageDie, 0);
  add_layer_mesh(model, pkg_grid, tech::RouteDirection::kOmni, ic.package_sheet_resistance);
  for (const auto& ball : to_global(c4_grid(pkg_w, pkg_h, spec.bga_pitch), pkg_frame)) {
    model.add_tap(pkg_grid.nearest(ball.x, ball.y), ic.c4_resistance);
  }

  if (on_chip) {
    for (int l = 0; l < logic_layers; ++l) {
      const auto& ml = tech.logic.layer(static_cast<std::size_t>(l));
      add_layer_mesh(model, model.grid(kLogicDie, l), ml.direction,
                     ml.segment_resistance(ml.default_vdd_usage));
    }
    for (int l = 0; l + 1 < logic_layers; ++l) {
      add_via_array(model, model.grid(kLogicDie, l), model.grid(kLogicDie, l + 1),
                    tech.logic.via_resistance);
    }
    const LayerGrid& logic_top = model.grid(kLogicDie, logic_layers - 1);
    for (const auto& bump : to_global(logic_c4, logic_frame)) {
      model.add_resistor(pkg_grid.nearest(bump.x, bump.y), logic_top.nearest(bump.x, bump.y),
                         ic.logic_c4_resistance, ElementKind::kC4);
    }
  }

  const double m2 = config.effective_m2();
  const double m3 = config.effective_m3();
  for (int d = 0; d < spec.num_dram_dies; ++d) {
    const auto& l2 = tech.dram.layer(0);
    const auto& l3 = tech.dram.layer(1);
    add_layer_mesh(model, model.grid(d, 0), l2.direction, l2.segment_resistance(m2));
    add_layer_mesh(model, model.grid(d, 1), l3.direction, l3.segment_resistance(m3));
    add_via_array(model, model.grid(d, 0), model.grid(d, 1), tech.dram.via_resistance);
    if (die_has_rdl(d)) {
      add_layer_mesh(model, model.grid(d, kRdlLayer), tech::RouteDirection::kOmni,
                     ic.rdl_sheet_resistance / ic.rdl_vdd_usage);
    }
  }

  // ---- Phase 4: bottom interface (supply entry into DRAM1) ------------------
  // Lands on DRAM1's RDL when one is present, otherwise on M3.
  const LayerGrid& dram0_entry =
      die_has_rdl(0) ? model.grid(0, kRdlLayer) : model.grid(0, 1);
  if (on_chip && !config.dedicated_tsvs) {
    // Power rides the logic PDN, then PG TSVs through the logic die. With
    // F2F, DRAM1 is flipped face-up, so the path adds DRAM1's own TSVs.
    const LayerGrid& logic_top = model.grid(kLogicDie, logic_layers - 1);
    const double r_bottom =
        ic.tsv_resistance + ic.microbump_resistance + (f2f ? 0.7 * ic.tsv_resistance : 0.0);
    for (std::size_t i = 0; i < bottom_sites.size(); ++i) {
      const auto& s = bottom_sites[i];
      model.add_resistor(logic_top.nearest(s.x, s.y), dram0_entry.nearest(s.x, s.y),
                         r_bottom + bottom_penalty[i], ElementKind::kTsv);
    }
  } else if (on_chip && config.dedicated_tsvs) {
    // Via-last dedicated TSVs: C4 pad straight to the DRAM stack, fully
    // decoupled from the logic mesh.
    const double r_bottom = ic.logic_c4_resistance + ic.dedicated_tsv_resistance +
                            ic.microbump_resistance + (f2f ? 0.7 * ic.tsv_resistance : 0.0);
    for (std::size_t i = 0; i < bottom_sites.size(); ++i) {
      const auto& s = bottom_sites[i];
      model.add_resistor(pkg_grid.nearest(s.x, s.y), dram0_entry.nearest(s.x, s.y),
                         r_bottom + bottom_penalty[i], ElementKind::kTsv);
    }
  } else {
    // Off-chip: flip-chip bumps from the package plane.
    const double r_bottom = ic.c4_resistance + (f2f ? 0.7 * ic.tsv_resistance : 0.0);
    for (std::size_t i = 0; i < bottom_sites.size(); ++i) {
      const auto& s = bottom_sites[i];
      model.add_resistor(pkg_grid.nearest(s.x, s.y), dram0_entry.nearest(s.x, s.y),
                         r_bottom + bottom_penalty[i], ElementKind::kC4);
    }
  }

  // RDL -> M3 backside-pad vias (at memory TSV sites and an edge pad ring).
  {
    const auto rdl_taps = to_global(rdl_taps_local, dram_frame);
    for (int d = 0; d < spec.num_dram_dies; ++d) {
      if (!model.has_grid(d, kRdlLayer)) continue;
      const LayerGrid& rdl = model.grid(d, kRdlLayer);
      const LayerGrid& m3g = model.grid(d, 1);
      for (const auto& p : rdl_taps) {
        model.add_resistor(rdl.nearest(p.x, p.y), m3g.nearest(p.x, p.y), ic.rdl_via_resistance,
                           ElementKind::kRdlVia);
      }
    }
  }

  // ---- Phase 5: die-to-die interfaces ---------------------------------------
  for (int d = 0; d + 1 < spec.num_dram_dies; ++d) {
    const bool pair_internal = f2f && (d % 2 == 0);
    const LayerGrid& lower = model.grid(d, 1);
    const bool land_on_rdl = model.has_grid(d + 1, kRdlLayer) && !pair_internal;
    const LayerGrid& upper = land_on_rdl ? model.grid(d + 1, kRdlLayer) : model.grid(d + 1, 1);

    if (pair_internal) {
      // Dense F2F via field: PDN sharing across the whole pair.
      for (int j = 0; j < lower.ny; ++j) {
        for (int i = 0; i < lower.nx; ++i) {
          const auto p = lower.position(i, j);
          model.add_resistor(lower.node(i, j), upper.nearest(p.x, p.y), ic.f2f_via_resistance,
                             ElementKind::kF2fVia);
        }
      }
    } else {
      // F2B interface: TSVs through the lower die + micro-bumps. Between F2F
      // pairs the path crosses both dies' TSVs (B2B), but those dies are
      // thinned aggressively for the F2F flow, so each TSV is shorter.
      const double r = f2f ? 1.4 * ic.tsv_resistance + ic.microbump_resistance
                           : ic.tsv_resistance + ic.microbump_resistance;
      for (const auto& s : mem_sites) {
        model.add_resistor(lower.nearest(s.x, s.y), upper.nearest(s.x, s.y), r,
                           ElementKind::kTsv);
      }
    }
  }

  // ---- Phase 6: backside wire bonding ---------------------------------------
  // Backside metallization forms bond pads over the PG TSV landing pattern,
  // so each wire reaches the die PDN through the same vertical entry points
  // the TSVs use (Figure 7). A limited number of wires fits along the stack
  // faces; sample the TSV sites evenly.
  if (config.wire_bonding) {
    const int wires_per_die = 4 * spec.wirebond_pads_per_side;
    std::vector<floorplan::Point> pads;
    if (static_cast<int>(mem_sites.size()) <= wires_per_die) {
      pads = mem_sites;
    } else {
      const double step = static_cast<double>(mem_sites.size()) / wires_per_die;
      for (int k = 0; k < wires_per_die; ++k) {
        pads.push_back(mem_sites[static_cast<std::size_t>(k * step)]);
      }
    }
    for (int d = 0; d < spec.num_dram_dies; ++d) {
      const LayerGrid& attach =
          model.has_grid(d, kRdlLayer) ? model.grid(d, kRdlLayer) : model.grid(d, 1);
      // Wires run down the stack face to the package; higher dies need
      // longer wires. The backside-pad via is in series.
      const double r_wire =
          ic.wirebond_resistance * (1.0 + 0.08 * static_cast<double>(d)) + ic.rdl_via_resistance;
      for (const auto& p : pads) {
        model.add_tap(attach.nearest(p.x, p.y), r_wire);
      }
    }
  }

  info.node_count = model.node_count();
  info.resistor_count = model.resistors().size();
  obs::gauge("pdn.node_count").set(static_cast<double>(info.node_count));
  obs::gauge("pdn.resistor_count").set(static_cast<double>(info.resistor_count));
  obs::gauge("pdn.tap_count").set(static_cast<double>(model.taps().size()));
  span.attribute("nodes", static_cast<std::uint64_t>(info.node_count));
  span.attribute("resistors", static_cast<std::uint64_t>(info.resistor_count));
  return BuiltStack{std::move(model), info};
}

StackModel build_single_die(const StackSpec& spec, const PdnConfig& config, int refine) {
  if (refine < 1) throw std::invalid_argument("build_single_die: refine must be >= 1");
  const tech::Technology& tech = spec.tech;
  const tech::InterconnectTech& ic = tech.interconnect;
  const double w = spec.dram_fp.width();
  const double h = spec.dram_fp.height();
  const double pitch = spec.grid_pitch / refine;

  StackModel model(tech.dram.vdd);
  model.set_dram_die_count(1);

  const auto& l2 = tech.dram.layer(0);
  const auto& l3 = tech.dram.layer(1);
  model.add_grid(make_grid(0, 0, "die/" + l2.name, w, h, pitch, 0.0, 0.0,
                           config.effective_m2(), l2.thickness_um));
  model.add_grid(make_grid(0, 1, "die/" + l3.name, w, h, pitch, 0.0, 0.0,
                           config.effective_m3(), l3.thickness_um));
  add_layer_mesh(model, model.grid(0, 0), l2.direction,
                 l2.segment_resistance(config.effective_m2()));
  add_layer_mesh(model, model.grid(0, 1), l3.direction,
                 l3.segment_resistance(config.effective_m3()));
  // Refined meshes put `refine^2` cells under one coarse cell; scale the
  // per-node via array so total via conductance per area is preserved.
  add_via_array(model, model.grid(0, 0), model.grid(0, 1),
                tech.dram.via_resistance * refine * refine);

  // 2D die on a package: supply pads where the TSVs would be.
  const auto sites = plan_tsv_sites(spec.dram_fp, config.tsv_location, config.tsv_count);
  const LayerGrid& m3g = model.grid(0, 1);
  for (const auto& s : sites) {
    model.add_tap(m3g.nearest(s.x, s.y), ic.c4_resistance);
  }
  return model;
}

}  // namespace pdn3d::pdn
