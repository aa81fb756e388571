//! Preprocessing: protect the security-critical cell assets.
//!
//! GDSII-Guard "preprocess\[es\] the original design such that the critical
//! cells will not be removed or replaced during the subsequent security
//! optimization" (§III-A). Here that means locking them in the occupancy
//! map: every ECO operator refuses to move locked cells.

use layout::Layout;

/// Locks every security-critical cell in place. Returns how many cells
/// were locked.
pub fn lock_critical_cells(layout: &mut Layout) -> usize {
    let critical = layout.design().critical_cells.clone();
    for &c in &critical {
        layout.occupancy_mut().lock(c);
    }
    critical.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::bench;
    use tech::Technology;

    #[test]
    fn locks_exactly_the_critical_set() {
        let tech = Technology::nangate45_like();
        let design = bench::generate(&bench::tiny_spec(), &tech);
        let n_critical = design.critical_cells.len();
        let mut layout = Layout::empty_floorplan(design, &tech, 0.6);
        place::global_place(&mut layout, &tech, 1);
        let locked = lock_critical_cells(&mut layout);
        assert_eq!(locked, n_critical);
        for (id, _) in layout.design().cells_iter() {
            let expect = layout.design().critical_cells.contains(&id);
            assert_eq!(layout.occupancy().is_locked(id), expect, "cell {}", id.0);
        }
    }
}
