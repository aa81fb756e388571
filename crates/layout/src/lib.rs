//! Physical-layout data model: floorplan, site occupancy, placement
//! blockages, filler cells, and the [`Layout`] aggregate that the placement,
//! routing, analysis, and defense crates operate on.
//!
//! A layout is a core area of uniform rows divided into placement sites
//! (the paper's free-site granularity), an assignment of every netlist cell
//! to a site run, optional filler cells, optional partial placement
//! blockages (density upper bounds used by the LDA operator), and the
//! active non-default routing rule.
//!
//! # Examples
//!
//! ```
//! use netlist::bench;
//! use tech::Technology;
//! use layout::Layout;
//!
//! let tech = Technology::nangate45_like();
//! let design = bench::generate(&bench::tiny_spec(), &tech);
//! let layout = Layout::empty_floorplan(design, &tech, 0.6);
//! assert!(layout.floorplan().num_sites() > 0);
//! ```

mod blockage;
mod filler;
mod floorplan;
mod occupancy;

use geom::SitePos;
use netlist::{CellId, Design};
use tech::{RouteRule, Technology};

pub use blockage::Blockage;
pub use filler::{insert_fillers, FillerInstance};
pub use floorplan::Floorplan;
pub use occupancy::{Occupancy, PlaceCellError, SiteState};

/// A placed (and possibly routed-against) physical layout.
///
/// The [`Design`] is `Arc`-shared — ECO operators move cells and swap
/// routing rules but never touch the netlist, so cloning a layout during
/// design-space exploration copies the occupancy map and rule, not the
/// design. The [`Technology`] is passed to the methods that need master
/// data, keeping layouts cheap to clone.
#[derive(Debug, Clone)]
pub struct Layout {
    design: std::sync::Arc<Design>,
    floorplan: Floorplan,
    occupancy: Occupancy,
    blockages: Vec<Blockage>,
    route_rule: RouteRule,
}

impl Layout {
    /// Creates an unplaced layout with a floorplan sized for the design at
    /// the given core `utilization`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not within `(0, 1]`.
    pub fn empty_floorplan(design: Design, tech: &Technology, utilization: f64) -> Self {
        let fp = Floorplan::for_design(&design, tech, utilization);
        let occupancy = Occupancy::new(fp);
        Self {
            design: std::sync::Arc::new(design),
            floorplan: fp,
            occupancy,
            blockages: Vec::new(),
            route_rule: RouteRule::default(),
        }
    }

    /// The underlying netlist, shared: `Arc::clone` it to keep the
    /// netlist while mutating the layout, without copying it.
    pub fn design(&self) -> &std::sync::Arc<Design> {
        &self.design
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Shared view of the occupancy map.
    pub fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    /// Mutable view of the occupancy map.
    pub fn occupancy_mut(&mut self) -> &mut Occupancy {
        &mut self.occupancy
    }

    /// The active partial placement blockages.
    pub fn blockages(&self) -> &[Blockage] {
        &self.blockages
    }

    /// Replaces the blockage list (the LDA operator rebuilds it each
    /// iteration).
    pub fn set_blockages(&mut self, blockages: Vec<Blockage>) {
        self.blockages = blockages;
    }

    /// Removes every placement blockage.
    pub fn clear_blockages(&mut self) {
        self.blockages.clear();
    }

    /// The active non-default routing rule.
    pub fn route_rule(&self) -> &RouteRule {
        &self.route_rule
    }

    /// Installs a non-default routing rule (Routing Width Scaling).
    pub fn set_route_rule(&mut self, rule: RouteRule) {
        self.route_rule = rule;
    }

    /// Origin site of a placed cell.
    pub fn cell_pos(&self, cell: CellId) -> Option<SitePos> {
        self.occupancy.cell_pos(cell)
    }

    /// Center of a placed cell in DBU, for wirelength and distance queries.
    ///
    /// # Panics
    ///
    /// Panics if the cell is unplaced.
    pub fn cell_center(&self, cell: CellId, tech: &Technology) -> geom::Point {
        let pos = self
            .cell_pos(cell)
            .unwrap_or_else(|| panic!("cell {} is unplaced", cell.0));
        let w = tech.library.kind(self.design.cell(cell).kind).width_sites;
        let r = self.floorplan.sites_rect(pos, w);
        r.center()
    }

    /// Fraction of core sites occupied by functional cells (fillers and
    /// blocked sites do not count as occupied).
    pub fn utilization(&self) -> f64 {
        let occupied = self.occupancy.occupied_sites();
        occupied as f64 / self.floorplan.num_sites() as f64
    }

    /// Rebuilds this layout around an *extended* design: a superset of the
    /// current netlist whose first cells are identical (same ids). Existing
    /// placement, blockages, and routing rules carry over; the new cells
    /// start unplaced. Used by fill-based defenses that append
    /// tamper-evident logic to a finalized design.
    ///
    /// # Panics
    ///
    /// Panics if the new design has fewer cells than the current one.
    pub fn with_extended_design(&self, design: Design) -> Layout {
        assert!(
            design.cells.len() >= self.design.cells.len(),
            "extended design must be a superset"
        );
        Layout {
            design: std::sync::Arc::new(design),
            floorplan: self.floorplan,
            occupancy: self.occupancy.clone(),
            blockages: self.blockages.clone(),
            route_rule: self.route_rule.clone(),
        }
    }

    /// Checks that every cell is placed exactly where the occupancy grid
    /// says it is, with no overlaps.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_consistency(&self, tech: &Technology) -> Result<(), String> {
        self.occupancy.check_consistency(&self.design, tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;

    fn tiny() -> (Technology, Layout) {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let layout = Layout::empty_floorplan(design, &tech, 0.6);
        (tech, layout)
    }

    #[test]
    fn floorplan_capacity_matches_utilization() {
        let (tech, layout) = tiny();
        let need = layout.design().total_cell_sites(&tech);
        let have = layout.floorplan().num_sites();
        let util = need as f64 / have as f64;
        assert!(util > 0.5 && util <= 0.62, "utilization {util}");
    }

    #[test]
    fn route_rule_round_trip() {
        let (_, mut layout) = tiny();
        assert!(layout.route_rule().is_default());
        layout.set_route_rule(RouteRule::uniform(1.2));
        assert_eq!(layout.route_rule().scale(3), 1.2);
    }

    #[test]
    fn blockage_management() {
        let (_, mut layout) = tiny();
        layout.set_blockages(vec![Blockage::new(0, 2, 0, 10, 0.5)]);
        assert_eq!(layout.blockages().len(), 1);
        layout.clear_blockages();
        assert!(layout.blockages().is_empty());
    }
}
