//! Cross-crate routing properties: conservation of usage under rip-up,
//! RC sanity, and congestion response to density.

use gdsii_guard::prelude::*;
use geom::GcellPos;
use netlist::{bench, NetDriver, Sink};
use tech::{RouteRule, Technology};

fn total_usage(r: &route::RoutingState) -> f64 {
    let g = r.grid();
    let mut t = 0.0;
    for y in 0..g.ny() {
        for x in 0..g.nx() {
            let p = GcellPos::new(x, y);
            t += g.capacity_all_layers() - g.free_tracks_all_layers(p);
        }
    }
    t
}

#[test]
fn routing_usage_matches_committed_segments() {
    let tech = Technology::nangate45_like();
    let snap = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
    let r = &snap.routing;
    // Every multi-cell net with at least two distinct terminal gcells has
    // segments; every segment stays on its layer's direction.
    let design = snap.layout.design();
    for (nid, net) in design.nets_iter() {
        if Some(nid) == design.clock {
            continue;
        }
        let mut terminals: Vec<GcellPos> = Vec::new();
        let mut push = |c: netlist::CellId| {
            let g = r.grid().gcell_of_point(snap.layout.cell_center(c, &tech));
            if !terminals.contains(&g) {
                terminals.push(g);
            }
        };
        if let NetDriver::Cell(c) = net.driver {
            push(c);
        }
        for s in &net.sinks {
            if let Sink::CellInput { cell, .. } = s {
                push(*cell);
            }
        }
        if terminals.len() >= 2 {
            assert!(
                !r.net_segs(nid).is_empty(),
                "net {} spans gcells but has no route",
                nid.0
            );
        }
    }
    assert!(total_usage(r) > 0.0);
}

#[test]
fn rc_scales_with_route_length() {
    let tech = Technology::nangate45_like();
    let snap = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
    let design = snap.layout.design();
    // Aggregate check: long routes carry more parasitics than short ones.
    let mut pairs: Vec<(u32, f64)> = design
        .nets_iter()
        .filter(|(id, _)| Some(*id) != design.clock)
        .map(|(id, _)| {
            let gcells: u32 = snap.routing.net_segs(id).iter().map(|s| s.gcells()).sum();
            (gcells, snap.routing.net_rc(id).cap)
        })
        .filter(|(g, _)| *g > 0)
        .collect();
    pairs.sort_unstable_by_key(|(g, _)| *g);
    let n = pairs.len();
    assert!(n > 10, "enough routed nets to compare");
    let short_avg: f64 = pairs[..n / 4].iter().map(|(_, c)| c).sum::<f64>() / (n / 4) as f64;
    let long_avg: f64 =
        pairs[3 * n / 4..].iter().map(|(_, c)| c).sum::<f64>() / (n - 3 * n / 4) as f64;
    assert!(
        long_avg > short_avg,
        "longer routes must carry more capacitance: {long_avg} vs {short_avg}"
    );
}

#[test]
fn ndr_trades_tracks_for_resistance_end_to_end() {
    let tech = Technology::nangate45_like();
    let design = bench::generate(&bench::tiny_spec(), &tech);
    let mut layout = layout::Layout::empty_floorplan(design, &tech, 0.6);
    place::global_place(&mut layout, &tech, 3);
    let base = route::route_design(&layout, &tech);
    layout.set_route_rule(RouteRule::uniform(1.5));
    let wide = route::route_design(&layout, &tech);
    let free = |r: &route::RoutingState| {
        let g = r.grid();
        let mut t = 0.0;
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                t += g.free_tracks_all_layers(GcellPos::new(x, y));
            }
        }
        t
    };
    assert!(free(&wide) < free(&base));
    let design = layout.design();
    let res = |r: &route::RoutingState| -> f64 {
        design
            .nets_iter()
            .filter(|(id, _)| Some(*id) != design.clock)
            .map(|(id, _)| r.net_rc(id).res)
            .sum()
    };
    assert!(res(&wide) < res(&base));
}

/// TINY globally placed at `util` with `seed`.
fn tiny_placed(tech: &Technology, util: f64, seed: u64) -> layout::Layout {
    let design = bench::generate(&bench::tiny_spec(), tech);
    let mut layout = layout::Layout::empty_floorplan(design, tech, util);
    place::global_place(&mut layout, tech, seed);
    layout
}

#[test]
fn routing_is_deterministic_and_bounded_by_capacity() {
    let tech = Technology::nangate45_like();
    let loose = tiny_placed(&tech, 0.6, 3);
    // Dense and wide-wired: its routing enters rip-up-and-reroute, so this
    // case pins Phase B's determinism on a congested input.
    let mut congested = tiny_placed(&tech, 0.75, 5);
    place::refine_wirelength(&mut congested, &tech, 2, 5);
    congested.set_route_rule(RouteRule::uniform(1.5));
    for (layout, runs_rrr) in [(&loose, false), (&congested, true)] {
        let a = route::route_design(layout, &tech);
        let b = route::route_design(layout, &tech);
        if runs_rrr {
            assert!(
                !a.touched_nets().is_empty(),
                "congested fixture must run rip-up-and-reroute"
            );
        }
        assert!(a.grid() == b.grid(), "route grid diverged between runs");
        for (nid, _) in layout.design().nets_iter() {
            assert_eq!(
                a.net_segs(nid),
                b.net_segs(nid),
                "segments of net {}",
                nid.0
            );
            assert_eq!(a.net_rc(nid), b.net_rc(nid), "parasitics of net {}", nid.0);
        }
        assert_eq!(a.total_wirelength_um(), b.total_wirelength_um());
        let g = a.grid();
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                let free = g.free_tracks_all_layers(GcellPos::new(x, y));
                assert!(free >= 0.0 && free <= g.capacity_all_layers() + 1e-9);
            }
        }
    }
}
