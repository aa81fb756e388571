use netlist::{CellId, NetId};

/// Result of a timing analysis run.
///
/// All times are in picoseconds relative to the capturing clock edge at
/// `clock_period`.
///
/// Equality is exact over every stored plane (no epsilon): it is the
/// bit-identity oracle the incremental-vs-dense equivalence tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    pub(crate) clock_period: f64,
    /// Arrival time at each net's driver output pin (`f64::NEG_INFINITY`
    /// for nets with no timed driver, e.g. the clock).
    pub(crate) arrival: Vec<f64>,
    /// Required time at each net's driver output pin
    /// (`f64::INFINITY` when unconstrained).
    pub(crate) required: Vec<f64>,
    /// `(endpoint description, slack)` for every FF D-pin and primary
    /// output.
    pub(crate) endpoint_slacks: Vec<(EndpointKind, f64)>,
    /// Per-cell worst slack over incident signal nets
    /// (`f64::INFINITY` for untimed cells such as fillers).
    pub(crate) cell_slack: Vec<f64>,
    /// Elmore wire delay per net in ps, kept so an incremental re-analysis
    /// can detect and re-propagate only nets whose parasitics changed.
    pub(crate) wire_delay: Vec<f64>,
    /// Driver load per net in fF (wire plus sink pins), kept for the same
    /// reason.
    pub(crate) net_load: Vec<f64>,
}

/// What terminates a timing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// Setup check at a flip-flop data pin.
    FlopData(CellId),
    /// Required time at a primary output.
    PrimaryOutput(u32),
}

impl TimingReport {
    /// The constraining clock period in ps.
    pub fn clock_period(&self) -> f64 {
        self.clock_period
    }

    /// Worst negative slack in ps (0 when every endpoint meets timing).
    pub fn wns_ps(&self) -> f64 {
        self.endpoint_slacks
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
            .min(0.0)
    }

    /// Worst slack in ps including positive values (how much margin the
    /// tightest endpoint has).
    pub fn worst_slack_ps(&self) -> f64 {
        self.endpoint_slacks
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total negative slack in ps (the paper's timing metric; 0 is
    /// optimal, more negative is worse).
    pub fn tns_ps(&self) -> f64 {
        self.endpoint_slacks.iter().map(|(_, s)| s.min(0.0)).sum()
    }

    /// All endpoint slacks.
    pub fn endpoint_slacks(&self) -> &[(EndpointKind, f64)] {
        &self.endpoint_slacks
    }

    /// Slack of the worst path through a net in ps
    /// (`f64::INFINITY` when the net is untimed/unconstrained).
    pub fn net_slack_ps(&self, net: NetId) -> f64 {
        let a = self.arrival[net.0 as usize];
        let r = self.required[net.0 as usize];
        if a == f64::NEG_INFINITY || r == f64::INFINITY {
            f64::INFINITY
        } else {
            r - a
        }
    }

    /// Worst slack of any path through the given cell in ps. This is the
    /// quantity bounding how much delay a Trojan tap on this cell's nets
    /// may add without breaking timing.
    pub fn cell_slack_ps(&self, cell: CellId) -> f64 {
        self.cell_slack
            .get(cell.0 as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(slacks: &[f64]) -> TimingReport {
        TimingReport {
            clock_period: 1_000.0,
            arrival: vec![],
            required: vec![],
            endpoint_slacks: slacks
                .iter()
                .map(|&s| (EndpointKind::PrimaryOutput(0), s))
                .collect(),
            cell_slack: vec![],
            wire_delay: vec![],
            net_load: vec![],
        }
    }

    #[test]
    fn tns_sums_only_negative() {
        let r = report(&[-3.0, 5.0, -2.0, 0.0]);
        assert_eq!(r.tns_ps(), -5.0);
        assert_eq!(r.wns_ps(), -3.0);
    }

    #[test]
    fn clean_design_has_zero_tns() {
        let r = report(&[4.0, 10.0]);
        assert_eq!(r.tns_ps(), 0.0);
        assert_eq!(r.wns_ps(), 0.0);
        assert_eq!(r.worst_slack_ps(), 4.0);
    }
}
