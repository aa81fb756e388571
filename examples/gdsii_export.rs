//! Tapeout export: fill the hardened layout, write a real GDSII stream to
//! disk (the artifact the untrusted foundry receives), parse it back, and
//! verify the geometry survived byte-exact.
//!
//! ```text
//! cargo run --release --example gdsii_export
//! ```

use gdsii::{layout_to_gds, GdsLibrary};
use gdsii_guard::prelude::*;
use tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::nangate45_like();
    let spec = netlist::bench::spec_by_name("TDEA").expect("known benchmark");
    let base = implement_baseline(&spec, &tech).unwrap();
    let mut hardened = FlowRun::new(&base, &tech, &FlowConfig::cell_shift_default()).snapshot()?;

    // Tapeout hygiene: tile the remaining whitespace with filler cells.
    let hl = std::sync::Arc::make_mut(&mut hardened.layout);
    let fillers = layout::insert_fillers(hl.occupancy_mut(), &tech);
    let lib = layout_to_gds(&hardened.layout, &tech, Some(&hardened.routing));
    let bytes = lib.to_bytes();
    let path = std::env::temp_dir().join("tdea_hardened.gds");
    std::fs::write(&path, &bytes)?;
    println!(
        "wrote {} ({} bytes, {} structures, {} elements, {} filler cells)",
        path.display(),
        bytes.len(),
        lib.structs.len(),
        lib.num_elements(),
        fillers
    );

    let back = GdsLibrary::from_bytes(&std::fs::read(&path)?)?;
    assert_eq!(back, lib, "GDSII round trip must be lossless");
    let top = back.find_struct("TOP").expect("top cell present");
    println!(
        "parsed back OK: top cell instantiates {} elements; library '{}' at {} m/DBU",
        top.elements.len(),
        back.name,
        back.meters_per_dbu
    );
    Ok(())
}
