use std::collections::HashMap;

use crate::cells::{CellClass, CellKind, KindId};

/// A standard-cell library: an indexed catalogue of [`CellKind`]s.
///
/// ```
/// let lib = tech::Library::nangate45_like();
/// let id = lib.kind_by_name("INV_X1").unwrap();
/// assert_eq!(lib.kind(id).name, "INV_X1");
/// ```
#[derive(Debug, Clone)]
pub struct Library {
    kinds: Vec<CellKind>,
    by_name: HashMap<&'static str, KindId>,
}

impl Library {
    /// Builds a library from a list of kinds.
    ///
    /// # Panics
    ///
    /// Panics if two kinds share a name or if more than `u16::MAX` kinds are
    /// supplied.
    pub fn new(kinds: Vec<CellKind>) -> Self {
        assert!(kinds.len() <= u16::MAX as usize);
        let mut by_name = HashMap::with_capacity(kinds.len());
        for (i, k) in kinds.iter().enumerate() {
            let prev = by_name.insert(k.name, KindId(i as u16));
            assert!(prev.is_none(), "duplicate cell kind name {}", k.name);
        }
        Self { kinds, by_name }
    }

    /// The Nangate-45nm-flavoured catalogue used throughout the workspace.
    pub fn nangate45_like() -> Self {
        use CellClass::{Combinational as C, Filler as F, Sequential as S};
        // (name, class, width_sites, inputs, R kΩ, Cin fF, intrinsic ps,
        //  setup ps, leakage nW, internal fJ)
        #[allow(clippy::type_complexity)] // one-off literal table
        let spec: &[(
            &'static str,
            CellClass,
            u32,
            u8,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
        )] = &[
            ("INV_X1", C, 2, 1, 2.00, 1.6, 8.0, 0.0, 10.0, 0.5),
            ("INV_X2", C, 3, 1, 1.00, 3.2, 7.0, 0.0, 18.0, 0.8),
            ("INV_X4", C, 4, 1, 0.50, 6.4, 6.0, 0.0, 33.0, 1.4),
            ("BUF_X1", C, 3, 1, 2.00, 1.2, 16.0, 0.0, 15.0, 0.9),
            ("BUF_X2", C, 4, 1, 1.00, 2.4, 14.0, 0.0, 25.0, 1.4),
            ("BUF_X4", C, 5, 1, 0.50, 4.8, 12.0, 0.0, 45.0, 2.4),
            ("NAND2_X1", C, 3, 2, 2.20, 1.7, 10.0, 0.0, 12.0, 0.7),
            ("NAND2_X2", C, 4, 2, 1.10, 3.4, 9.0, 0.0, 22.0, 1.2),
            ("NAND3_X1", C, 4, 3, 2.50, 1.8, 13.0, 0.0, 16.0, 0.9),
            ("NOR2_X1", C, 3, 2, 2.40, 1.8, 11.0, 0.0, 13.0, 0.7),
            ("NOR2_X2", C, 4, 2, 1.20, 3.6, 10.0, 0.0, 23.0, 1.2),
            ("AND2_X1", C, 4, 2, 2.10, 1.5, 17.0, 0.0, 14.0, 0.9),
            ("OR2_X1", C, 4, 2, 2.20, 1.5, 18.0, 0.0, 14.0, 0.9),
            ("XOR2_X1", C, 5, 2, 2.60, 2.2, 20.0, 0.0, 20.0, 1.5),
            ("XNOR2_X1", C, 5, 2, 2.60, 2.2, 20.0, 0.0, 20.0, 1.5),
            ("AOI21_X1", C, 4, 3, 2.40, 1.8, 14.0, 0.0, 15.0, 0.9),
            ("OAI21_X1", C, 4, 3, 2.40, 1.8, 14.0, 0.0, 15.0, 0.9),
            ("MUX2_X1", C, 6, 3, 2.50, 2.0, 19.0, 0.0, 22.0, 1.3),
            ("DFF_X1", S, 9, 1, 2.00, 1.5, 35.0, 30.0, 45.0, 2.5),
            ("DFF_X2", S, 10, 1, 1.00, 1.5, 32.0, 28.0, 60.0, 3.5),
            ("FILL_X1", F, 1, 0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
            ("FILL_X2", F, 2, 0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0),
            ("FILL_X4", F, 4, 0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0),
            ("FILL_X8", F, 8, 0, 0.0, 0.0, 0.0, 0.0, 8.0, 0.0),
        ];
        let kinds = spec
            .iter()
            .map(
                |&(
                    name,
                    class,
                    width_sites,
                    inputs,
                    drive_res,
                    input_cap,
                    intrinsic,
                    setup,
                    leakage,
                    internal_energy,
                )| {
                    CellKind {
                        name,
                        class,
                        width_sites,
                        inputs,
                        drive_res,
                        input_cap,
                        intrinsic,
                        setup,
                        leakage,
                        internal_energy,
                    }
                },
            )
            .collect();
        Self::new(kinds)
    }

    /// Number of kinds in the library.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: KindId) -> &CellKind {
        &self.kinds[id.0 as usize]
    }

    /// Looks up a kind by its library name.
    pub fn kind_by_name(&self, name: &str) -> Option<KindId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(id, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (KindId, &CellKind)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, k)| (KindId(i as u16), k))
    }

    /// Filler kinds sorted by descending width, for greedy gap filling.
    pub fn fillers_desc(&self) -> Vec<KindId> {
        let mut f: Vec<KindId> = self
            .iter()
            .filter(|(_, k)| k.is_filler())
            .map(|(id, _)| id)
            .collect();
        f.sort_by_key(|id| std::cmp::Reverse(self.kind(*id).width_sites));
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_round_trip() {
        let lib = Library::nangate45_like();
        for (id, k) in lib.iter() {
            assert_eq!(lib.kind_by_name(k.name), Some(id));
        }
    }

    #[test]
    fn has_expected_families() {
        let lib = Library::nangate45_like();
        for name in [
            "INV_X1", "NAND2_X1", "XOR2_X1", "DFF_X1", "FILL_X1", "MUX2_X1",
        ] {
            assert!(lib.kind_by_name(name).is_some(), "missing {name}");
        }
        assert!(lib.kind_by_name("SRAM_MACRO").is_none());
    }

    #[test]
    fn fillers_cover_width_one() {
        let lib = Library::nangate45_like();
        let fillers = lib.fillers_desc();
        assert!(!fillers.is_empty());
        // Widths strictly descending, ending at a 1-site filler so any gap
        // can be tiled exactly.
        let widths: Vec<u32> = fillers.iter().map(|f| lib.kind(*f).width_sites).collect();
        assert!(widths.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(*widths.last().unwrap(), 1);
    }

    #[test]
    fn stronger_drives_are_less_resistive() {
        let lib = Library::nangate45_like();
        let x1 = lib.kind(lib.kind_by_name("INV_X1").unwrap());
        let x4 = lib.kind(lib.kind_by_name("INV_X4").unwrap());
        assert!(x4.drive_res < x1.drive_res);
        assert!(x4.input_cap > x1.input_cap);
        assert!(x4.leakage > x1.leakage);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let lib = Library::nangate45_like();
        let k = lib.kind(lib.kind_by_name("INV_X1").unwrap()).clone();
        Library::new(vec![k.clone(), k]);
    }
}
