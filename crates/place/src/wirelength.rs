use std::sync::Arc;

use geom::{Point, Rect};
use layout::Layout;
use netlist::{CellId, NetDriver, NetId, Sink};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tech::Technology;

/// Bounding box of a net over the centers of its placed cells, or `None`
/// when the net touches fewer than two placed cells (IO-only or dangling
/// nets have no internal wirelength).
pub fn net_bbox(layout: &Layout, tech: &Technology, net: NetId) -> Option<Rect> {
    let design = layout.design();
    let n = design.net(net);
    let mut points: Vec<Point> = Vec::new();
    if let NetDriver::Cell(c) = n.driver {
        points.push(layout.cell_center(c, tech));
    }
    for s in &n.sinks {
        match s {
            Sink::CellInput { cell, .. } | Sink::CellClock(cell) => {
                points.push(layout.cell_center(*cell, tech));
            }
            Sink::PrimaryOutput(_) => {}
        }
    }
    if points.len() < 2 {
        return None;
    }
    let mut lo = points[0];
    let mut hi = points[0];
    for p in &points[1..] {
        lo = lo.min(*p);
        hi = hi.max(*p);
    }
    Some(Rect::new(lo, hi))
}

/// Half-perimeter wirelength of one net in µm (zero for IO-only nets).
pub fn hpwl_um(layout: &Layout, tech: &Technology, net: NetId) -> f64 {
    net_bbox(layout, tech, net)
        .map(|b| geom::dbu_to_um(b.width() + b.height()))
        .unwrap_or(0.0)
}

/// Total half-perimeter wirelength in µm, excluding the clock net (the
/// clock is distributed by a dedicated tree outside the signal router).
pub fn hpwl_total(layout: &Layout, tech: &Technology) -> f64 {
    let clock = layout.design().clock;
    layout
        .design()
        .nets_iter()
        .filter(|(id, _)| Some(*id) != clock)
        .map(|(id, _)| hpwl_um(layout, tech, id))
        .sum()
}

/// Nets incident to a cell, excluding the clock.
fn incident_nets(layout: &Layout, cell: CellId) -> Vec<NetId> {
    let design = layout.design();
    let c = design.cell(cell);
    let clock = design.clock;
    let mut nets: Vec<NetId> = c
        .inputs
        .iter()
        .copied()
        .chain(c.output)
        .filter(|n| Some(*n) != clock)
        .collect();
    nets.sort_unstable();
    nets.dedup();
    nets
}

/// Greedy wirelength-driven detail refinement: each cell is repeatedly
/// offered a move toward the median of its connected neighbors, accepted
/// only when the incident-net HPWL strictly decreases. Locked cells never
/// move. Returns the number of accepted moves.
///
/// This mirrors the wirelength/timing-driven nature of Innovus ECO
/// placement that the paper relies on ("the low-density regions will be
/// pushed away from security-critical cells with minimized impact on
/// circuit performance").
pub fn refine_wirelength(
    layout: &mut Layout,
    tech: &Technology,
    iterations: usize,
    seed: u64,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0EF1_4E00);
    let design = Arc::clone(layout.design());
    let clock = design.clock;
    let mut order: Vec<CellId> = design.cells_iter().map(|(id, _)| id).collect();
    let mut accepted = 0;

    for _ in 0..iterations {
        order.shuffle(&mut rng);
        for &cell in &order {
            if layout.occupancy().is_locked(cell) || layout.cell_pos(cell).is_none() {
                continue;
            }
            let neigh = crate::global::neighbors(&design, cell, clock);
            if neigh.is_empty() {
                continue;
            }
            // Median of neighbor centers is the 1-norm optimal location.
            let mut xs: Vec<i64> = Vec::with_capacity(neigh.len());
            let mut ys: Vec<i64> = Vec::with_capacity(neigh.len());
            for &n in &neigh {
                if layout.cell_pos(n).is_some() {
                    let p = layout.cell_center(n, tech);
                    xs.push(p.x);
                    ys.push(p.y);
                }
            }
            if xs.is_empty() {
                continue;
            }
            xs.sort_unstable();
            ys.sort_unstable();
            let ideal = Point::new(xs[xs.len() / 2], ys[ys.len() / 2]);
            let target = layout.floorplan().site_at(ideal);
            let cur = layout.cell_pos(cell).expect("checked placed");
            if cur.chebyshev(target) <= 1 {
                continue;
            }
            let width = layout
                .occupancy()
                .cell_width(cell)
                .expect("placed cell has width");

            let before: f64 = incident_nets(layout, cell)
                .iter()
                .map(|&n| hpwl_um(layout, tech, n))
                .sum();
            // Vacate first so the cell's own gap is reusable.
            let occ = layout.occupancy_mut();
            occ.remove_cell(cell).expect("not locked");
            let dest = occ.find_gap(width, target, 12);
            match dest {
                Some(p) => {
                    occ.place_cell(cell, width, p).expect("gap was free");
                    let after: f64 = incident_nets(layout, cell)
                        .iter()
                        .map(|&n| hpwl_um(layout, tech, n))
                        .sum();
                    if after + 1e-9 < before {
                        accepted += 1;
                    } else {
                        let occ = layout.occupancy_mut();
                        occ.remove_cell(cell).expect("not locked");
                        occ.place_cell(cell, width, cur)
                            .expect("old spot still free");
                    }
                }
                None => {
                    occ.place_cell(cell, width, cur)
                        .expect("old spot still free");
                }
            }
        }
    }
    debug_assert!(layout.check_consistency(tech).is_ok());
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn placed() -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        crate::global_place(&mut layout, &tech, 3);
        (tech, layout)
    }

    #[test]
    fn refinement_reduces_hpwl() {
        let (tech, mut layout) = placed();
        let before = hpwl_total(&layout, &tech);
        let moves = refine_wirelength(&mut layout, &tech, 3, 3);
        let after = hpwl_total(&layout, &tech);
        assert!(moves > 0, "no moves accepted");
        assert!(after < before, "HPWL did not improve: {before} -> {after}");
        layout.check_consistency(&tech).unwrap();
    }

    #[test]
    fn locked_cells_do_not_move() {
        let (tech, mut layout) = placed();
        let critical = layout.design().critical_cells.clone();
        for &c in &critical {
            layout.occupancy_mut().lock(c);
        }
        let before: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        refine_wirelength(&mut layout, &tech, 2, 9);
        let after: Vec<_> = critical.iter().map(|&c| layout.cell_pos(c)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn hpwl_is_nonnegative_and_zero_for_io_only() {
        let (tech, layout) = placed();
        for (id, _) in layout.design().nets_iter() {
            assert!(hpwl_um(&layout, &tech, id) >= 0.0);
        }
        // Unsunk PI nets have no internal wirelength.
        let unsunk: Option<NetId> = layout
            .design()
            .nets_iter()
            .find(|(_, n)| n.sinks.is_empty())
            .map(|(id, _)| id);
        if let Some(id) = unsunk {
            assert_eq!(hpwl_um(&layout, &tech, id), 0.0);
        }
    }
}
