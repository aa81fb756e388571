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

/// TINY placed dense and wired wide: its routing enters rip-up-and-reroute.
fn congested_tiny(tech: &Technology) -> layout::Layout {
    let mut layout = tiny_placed(tech, 0.75, 5);
    place::refine_wirelength(&mut layout, tech, 2, 5);
    layout.set_route_rule(RouteRule::uniform(1.5));
    layout
}

#[test]
fn routing_is_deterministic_and_bounded_by_capacity() {
    let tech = Technology::nangate45_like();
    let loose = tiny_placed(&tech, 0.6, 3);
    // Dense and wide-wired: this case pins Phase B's determinism on a
    // congested input.
    let congested = congested_tiny(&tech);
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

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of a routing result: every net's segments, every layer's usage
/// quanta and every net's RC bits.
fn routing_hash(layout: &layout::Layout, r: &route::RoutingState) -> u64 {
    let mut h = Fnv1a::new();
    for (nid, _) in layout.design().nets_iter() {
        let segs = r.net_segs(nid);
        h.word(segs.len() as u64);
        for s in segs {
            for v in [s.layer as u32, s.from.x, s.from.y, s.to.x, s.to.y] {
                h.word(v as u64);
            }
        }
        let rc = r.net_rc(nid);
        h.word(rc.res.to_bits());
        h.word(rc.cap.to_bits());
    }
    let g = r.grid();
    for m in 1..=tech::NUM_METAL_LAYERS {
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                h.word(g.quanta_at(m, x, y) as u64);
            }
        }
    }
    h.0
}

/// Pins Phase B's output across commits: a router change that claims
/// bit-identical routes must leave these hashes alone. Re-capture them
/// only with a change meant to alter routes, and say so.
#[test]
fn phase_b_routes_match_the_golden_hashes() {
    let tech = Technology::nangate45_like();
    let loose = tiny_placed(&tech, 0.6, 3);
    let congested = congested_tiny(&tech);
    let present = implement_baseline(
        &bench::spec_by_name("PRESENT").expect("known design"),
        &tech,
    )
    .unwrap();
    let mut present_wide = layout::Layout::clone(&present.layout);
    present_wide.set_route_rule(RouteRule::uniform(1.5));
    // Census totals 164 -> 18 -> 16: the stall rule ends Phase B after
    // round 1 and keeps round 1's routes.
    let tiny = implement_baseline(&bench::tiny_spec(), &tech).unwrap();
    let mut tiny_stalls = layout::Layout::clone(&tiny.layout);
    tiny_stalls.set_route_rule(RouteRule::uniform(3.0));
    // (input, whether it must enter rip-up-and-reroute, golden hash)
    let cases: [(&str, &layout::Layout, bool, u64); 4] = [
        ("TINY util 0.6", &loose, false, 0x9af2_d051_6c1d_928b),
        (
            "TINY congested 1.5x",
            &congested,
            true,
            0x0ba2_c893_1d1a_d0aa,
        ),
        ("PRESENT 1.5x", &present_wide, true, 0x73aa_92a2_d5c3_d0c3),
        (
            "TINY baseline 3x, stalls",
            &tiny_stalls,
            true,
            0x5cd9_9866_81dc_0997,
        ),
    ];
    let mut diffs = Vec::new();
    for (name, layout, runs_rrr, golden) in cases {
        let r = route::route_design(layout, &tech);
        if runs_rrr {
            assert!(
                !r.touched_nets().is_empty(),
                "{name}: widened input must run rip-up-and-reroute"
            );
        }
        let got = routing_hash(layout, &r);
        if got != golden {
            diffs.push(format!("{name}: {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(diffs.is_empty(), "routes changed: {diffs:#?}");
}
