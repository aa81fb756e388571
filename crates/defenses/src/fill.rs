//! Shared netlist surgery for fill-based defenses: appending functional
//! fill gates to a finalized design and chaining them into a
//! built-in-self-authentication network.

use geom::{Interval, SitePos};
use layout::Layout;
use netlist::{Cell, CellId, Design, Net, NetDriver, NetId, Sink};
use tech::{KindId, Technology};

/// Running state of the self-authentication chain: fill gates consume the
/// most recent chain outputs, so consecutive (physically adjacent) fill
/// cells wire to each other with short nets.
pub(crate) struct FillChain {
    /// Most recent chain output.
    prev: NetId,
    /// Second most recent, for 2-input gates.
    prev2: NetId,
    /// Number of gates added.
    pub added: usize,
}

impl FillChain {
    /// Starts a chain from a fresh `test_en` primary input.
    pub fn new(design: &mut Design) -> Self {
        let idx = design.primary_inputs.len() as u32;
        let net = NetId(design.nets.len() as u32);
        design.nets.push(Net {
            name: format!("bisa_test_en{idx}"),
            driver: NetDriver::PrimaryInput(idx),
            sinks: Vec::new(),
        });
        design.primary_inputs.push(net);
        Self {
            prev: net,
            prev2: net,
            added: 0,
        }
    }

    /// Appends one fill gate of `kind` to the design and returns its id.
    pub fn push_gate(&mut self, design: &mut Design, tech: &Technology, kind: KindId) -> CellId {
        let master = tech.library.kind(kind);
        let id = CellId(design.cells.len() as u32);
        let out = NetId(design.nets.len() as u32);
        let inputs: Vec<NetId> = match master.inputs {
            1 => vec![self.prev],
            2 => vec![self.prev, self.prev2],
            n => {
                let mut v = vec![self.prev, self.prev2];
                v.extend(std::iter::repeat_n(self.prev, n as usize - 2));
                v
            }
        };
        design.nets.push(Net {
            name: format!("bisa_n{}", out.0),
            driver: NetDriver::Cell(id),
            sinks: Vec::new(),
        });
        for (pin, &net) in inputs.iter().enumerate() {
            design.nets[net.0 as usize].sinks.push(Sink::CellInput {
                cell: id,
                pin: pin as u8,
            });
        }
        design.cells.push(Cell {
            name: format!("bisa_fill{}", id.0),
            kind,
            inputs,
            output: Some(out),
            clock: None,
        });
        self.prev2 = self.prev;
        self.prev = out;
        self.added += 1;
        id
    }

    /// Terminates the chain at a fresh primary output (the authentication
    /// signature pin).
    pub fn finish(self, design: &mut Design) {
        let idx = design.primary_outputs.len() as u32;
        design.nets[self.prev.0 as usize]
            .sinks
            .push(Sink::PrimaryOutput(idx));
        design.primary_outputs.push(self.prev);
    }
}

/// Greedy tiling of a free run with functional gates (INV = 2 sites,
/// NAND2 = 3 sites): every length ≥ 2 tiles exactly; single-site slivers
/// are unfillable by functional logic and remain — the residue the paper
/// measures for BISA.
pub(crate) fn tile_widths(len: u32) -> Vec<&'static str> {
    let mut out = Vec::new();
    let mut left = len;
    while left >= 2 {
        if left == 2 || left == 4 {
            out.push("INV_X1");
            left -= 2;
        } else {
            out.push("NAND2_X1");
            left -= 3;
        }
    }
    out
}

/// Fills the given free runs of a layout with chained functional gates.
/// Returns `(extended layout, gates added)`.
pub(crate) fn fill_runs(
    base_layout: &Layout,
    tech: &Technology,
    runs: &[(u32, Interval)],
) -> (Layout, usize) {
    let mut design = Design::clone(base_layout.design());
    let mut chain = FillChain::new(&mut design);
    // Collect (position, kind) first so the design surgery happens in one
    // deterministic sweep.
    let mut placements: Vec<(SitePos, KindId, u32)> = Vec::new();
    for &(row, iv) in runs {
        let mut col = iv.lo;
        for name in tile_widths(iv.len()) {
            let kind = tech.library.kind_by_name(name).expect("fill kind");
            let w = tech.library.kind(kind).width_sites;
            placements.push((SitePos::new(row, col), kind, w));
            col += w;
        }
    }
    let mut gate_ids = Vec::with_capacity(placements.len());
    for &(_, kind, _) in &placements {
        gate_ids.push(chain.push_gate(&mut design, tech, kind));
    }
    let added = chain.added;
    chain.finish(&mut design);
    let mut layout = base_layout.with_extended_design(design);
    layout.occupancy_mut().clear_fillers();
    for (i, &(pos, _, w)) in placements.iter().enumerate() {
        layout
            .occupancy_mut()
            .place_cell(gate_ids[i], w, pos)
            .expect("run was free");
    }
    debug_assert!(layout.check_consistency(tech).is_ok());
    (layout, added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;
    use tech::Technology;

    #[test]
    fn tile_widths_cover_everything_but_slivers() {
        for len in 2..60 {
            let tech = Technology::nangate45_like();
            let total: u32 = tile_widths(len)
                .iter()
                .map(|n| {
                    tech.library
                        .kind(tech.library.kind_by_name(n).unwrap())
                        .width_sites
                })
                .sum();
            assert_eq!(total, len, "len {len} mistiled");
        }
        assert!(tile_widths(1).is_empty());
        assert!(tile_widths(0).is_empty());
    }

    #[test]
    fn chain_produces_valid_design() {
        let tech = Technology::nangate45_like();
        let mut design = bench::generate(&bench::tiny_spec(), &tech);
        let n_cells = design.cells.len();
        let mut chain = FillChain::new(&mut design);
        for _ in 0..10 {
            chain.push_gate(
                &mut design,
                &tech,
                tech.library.kind_by_name("NAND2_X1").unwrap(),
            );
        }
        chain.finish(&mut design);
        assert_eq!(design.cells.len(), n_cells + 10);
        design
            .validate(&tech)
            .expect("surgery preserves invariants");
    }

    #[test]
    fn fill_runs_places_and_extends() {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let mut layout = layout::Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut layout, &tech, 3);
        let runs: Vec<(u32, Interval)> = (0..layout.floorplan().rows())
            .flat_map(|r| {
                layout
                    .occupancy()
                    .empty_runs(r)
                    .into_iter()
                    .map(move |iv| (r, iv))
            })
            .collect();
        let (filled, added) = fill_runs(&layout, &tech, &runs);
        assert!(added > 0);
        filled.design().validate(&tech).expect("valid after fill");
        // Only 1-site slivers remain empty.
        for r in 0..filled.floorplan().rows() {
            for run in filled.occupancy().empty_runs(r) {
                assert_eq!(run.len(), 1, "run {run} should have been filled");
            }
        }
    }
}
