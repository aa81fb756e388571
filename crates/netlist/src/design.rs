use std::collections::HashSet;

use tech::{KindId, Technology};

/// Identifier of a [`Cell`] instance within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Identifier of a [`Net`] within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// The source driving a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Driven by the output pin of a cell.
    Cell(CellId),
    /// Driven by the `i`-th primary input of the design.
    PrimaryInput(u32),
}

/// A load on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// The `pin`-th signal input of a cell.
    CellInput {
        /// Loaded cell.
        cell: CellId,
        /// Input pin index, `0 .. kind.inputs`.
        pin: u8,
    },
    /// The clock pin of a sequential cell.
    CellClock(CellId),
    /// The `i`-th primary output of the design.
    PrimaryOutput(u32),
}

/// A standard-cell instance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name, unique within the design.
    pub name: String,
    /// Library master.
    pub kind: KindId,
    /// Signal input nets, one per library input pin.
    pub inputs: Vec<NetId>,
    /// Output net (all library cells in this workspace have one output;
    /// fillers have none).
    pub output: Option<NetId>,
    /// Clock net for sequential cells.
    pub clock: Option<NetId>,
}

/// A signal net with a single driver and a fanout list.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name, unique within the design.
    pub name: String,
    /// Driving source.
    pub driver: NetDriver,
    /// Loads.
    pub sinks: Vec<Sink>,
}

/// SDC-style timing constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraints {
    /// Clock period in ps.
    pub clock_period: f64,
    /// Arrival time budget consumed outside the core at primary inputs, ps.
    pub input_delay: f64,
    /// Required-time margin at primary outputs, ps.
    pub output_delay: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            clock_period: 1_000.0,
            input_delay: 0.0,
            output_delay: 0.0,
        }
    }
}

/// Errors returned by [`Design::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateDesignError {
    /// A cell's input count does not match its library master.
    InputArity {
        /// Offending cell.
        cell: CellId,
    },
    /// A net's recorded driver does not point back at the net.
    DanglingDriver {
        /// Offending net.
        net: NetId,
    },
    /// A sink entry references a pin that does not exist or does not point
    /// back at the net.
    BadSink {
        /// Offending net.
        net: NetId,
    },
    /// A sequential cell is missing its clock connection.
    MissingClock {
        /// Offending cell.
        cell: CellId,
    },
    /// A critical-asset entry references a nonexistent cell.
    BadCriticalCell {
        /// Offending id.
        cell: CellId,
    },
}

impl core::fmt::Display for ValidateDesignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InputArity { cell } => write!(f, "cell {} has wrong input arity", cell.0),
            Self::DanglingDriver { net } => write!(f, "net {} driver does not match", net.0),
            Self::BadSink { net } => write!(f, "net {} has an inconsistent sink", net.0),
            Self::MissingClock { cell } => write!(f, "sequential cell {} has no clock", cell.0),
            Self::BadCriticalCell { cell } => {
                write!(f, "critical asset list references unknown cell {}", cell.0)
            }
        }
    }
}

impl std::error::Error for ValidateDesignError {}

/// A gate-level design: cells, nets, IO, constraints, and the annotated
/// security-critical cell assets (Definition 2.1 of the paper).
#[derive(Debug, Clone)]
pub struct Design {
    /// Design name (e.g. `"AES_1"`).
    pub name: String,
    /// Cell instances, indexed by [`CellId`].
    pub cells: Vec<Cell>,
    /// Nets, indexed by [`NetId`].
    pub nets: Vec<Net>,
    /// Nets driven by primary inputs (parallel to input index).
    pub primary_inputs: Vec<NetId>,
    /// Nets sampled by primary outputs (parallel to output index).
    pub primary_outputs: Vec<NetId>,
    /// The clock net, if the design is sequential.
    pub clock: Option<NetId>,
    /// Timing constraints.
    pub constraints: Constraints,
    /// Security-critical cell assets to be protected.
    pub critical_cells: Vec<CellId>,
}

impl Design {
    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells_iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets_iter(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Number of sequential cells.
    pub fn num_flops(&self, tech: &Technology) -> usize {
        self.cells
            .iter()
            .filter(|c| tech.library.kind(c.kind).is_sequential())
            .count()
    }

    /// Sum of cell footprints in placement sites.
    pub fn total_cell_sites(&self, tech: &Technology) -> u64 {
        self.cells
            .iter()
            .map(|c| tech.library.kind(c.kind).width_sites as u64)
            .sum()
    }

    /// Critical cells as a hash set for O(1) membership tests.
    pub fn critical_set(&self) -> HashSet<CellId> {
        self.critical_cells.iter().copied().collect()
    }

    /// Checks the structural invariants of the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: input arity mismatches,
    /// driver/sink back-references that do not match, sequential cells
    /// without clock, or critical-asset entries referencing unknown cells.
    pub fn validate(&self, tech: &Technology) -> Result<(), ValidateDesignError> {
        for (id, cell) in self.cells_iter() {
            let kind = tech.library.kind(cell.kind);
            if cell.inputs.len() != kind.inputs as usize {
                return Err(ValidateDesignError::InputArity { cell: id });
            }
            if kind.is_sequential() && cell.clock.is_none() {
                return Err(ValidateDesignError::MissingClock { cell: id });
            }
            for (pin, &net) in cell.inputs.iter().enumerate() {
                let ok = self.net(net).sinks.iter().any(|s| {
                    matches!(s, Sink::CellInput { cell, pin: p } if *cell == id && *p as usize == pin)
                });
                if !ok {
                    return Err(ValidateDesignError::BadSink { net });
                }
            }
            if let Some(out) = cell.output {
                if self.net(out).driver != NetDriver::Cell(id) {
                    return Err(ValidateDesignError::DanglingDriver { net: out });
                }
            }
        }
        for (nid, net) in self.nets_iter() {
            match net.driver {
                NetDriver::Cell(c) => {
                    if self.cells.get(c.0 as usize).and_then(|c| c.output) != Some(nid) {
                        return Err(ValidateDesignError::DanglingDriver { net: nid });
                    }
                }
                NetDriver::PrimaryInput(i) => {
                    if self.primary_inputs.get(i as usize) != Some(&nid) {
                        return Err(ValidateDesignError::DanglingDriver { net: nid });
                    }
                }
            }
            for s in &net.sinks {
                let ok = match *s {
                    Sink::CellInput { cell, pin } => self
                        .cells
                        .get(cell.0 as usize)
                        .is_some_and(|c| c.inputs.get(pin as usize) == Some(&nid)),
                    Sink::CellClock(cell) => self
                        .cells
                        .get(cell.0 as usize)
                        .is_some_and(|c| c.clock == Some(nid)),
                    Sink::PrimaryOutput(i) => self.primary_outputs.get(i as usize) == Some(&nid),
                };
                if !ok {
                    return Err(ValidateDesignError::BadSink { net: nid });
                }
            }
        }
        for &c in &self.critical_cells {
            if c.0 as usize >= self.cells.len() {
                return Err(ValidateDesignError::BadCriticalCell { cell: c });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use tech::Technology;

    #[test]
    fn validate_accepts_builder_output() {
        let tech = Technology::nangate45_like();
        let mut b = NetlistBuilder::new("t", &tech);
        let a = b.add_primary_input("a");
        let inv = b.add_gate("INV_X1", &[a]);
        b.add_primary_output(inv);
        let d = b.finish();
        assert!(d.validate(&tech).is_ok());
    }

    #[test]
    fn validate_catches_bad_critical_list() {
        let tech = Technology::nangate45_like();
        let mut b = NetlistBuilder::new("t", &tech);
        let a = b.add_primary_input("a");
        let inv = b.add_gate("INV_X1", &[a]);
        b.add_primary_output(inv);
        let mut d = b.finish();
        d.critical_cells.push(CellId(999));
        assert_eq!(
            d.validate(&tech),
            Err(ValidateDesignError::BadCriticalCell { cell: CellId(999) })
        );
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let tech = Technology::nangate45_like();
        let mut b = NetlistBuilder::new("t", &tech);
        let a = b.add_primary_input("a");
        let n = b.add_gate("NAND2_X1", &[a, a]);
        b.add_primary_output(n);
        let mut d = b.finish();
        d.cells[0].inputs.pop();
        assert!(matches!(
            d.validate(&tech),
            Err(ValidateDesignError::InputArity { .. })
        ));
    }

    #[test]
    fn error_display_nonempty() {
        let e = ValidateDesignError::MissingClock { cell: CellId(3) };
        assert!(!e.to_string().is_empty());
    }
}
