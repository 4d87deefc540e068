//! A combinational netlist with static timing analysis.
//!
//! Delays are expressed in FO4 units so results are technology-portable; the
//! consumer multiplies by the node's FO4 delay. The netlist is a DAG of
//! gates; primary inputs are gates with no fan-in and zero delay.

/// Index of a gate within a [`Netlist`].
pub type GateId = usize;

/// The logic function of a gate (affects its intrinsic delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (zero delay).
    Input,
    /// Inverter / buffer.
    Inv,
    /// 2-input NAND/NOR class gate.
    Nand2,
    /// Wide (3-4 input) AND/OR class gate.
    And4,
    /// 2-input XOR (two stacked stages).
    Xor2,
    /// 2:1 multiplexer.
    Mux2,
    /// AND-OR-invert carry gate.
    Aoi,
}

impl GateKind {
    /// Intrinsic delay in FO4 units.
    pub fn delay_fo4(self) -> f64 {
        match self {
            GateKind::Input => 0.0,
            GateKind::Inv => 0.5,
            GateKind::Nand2 => 0.8,
            GateKind::And4 => 1.3,
            GateKind::Xor2 => 1.4,
            GateKind::Mux2 => 1.1,
            GateKind::Aoi => 1.0,
        }
    }
}

/// One gate: a kind plus its fan-in edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Driving gates.
    pub fanin: Vec<GateId>,
    /// Free-form label for reports (e.g. `p[12]`, `skipmux[3]`).
    pub label: String,
}

/// Timing results for every gate of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Arrival time at each gate's output, FO4 units.
    pub arrival: Vec<f64>,
    /// Required time at each gate's output, FO4 units.
    pub required: Vec<f64>,
    /// Critical path delay, FO4 units.
    pub critical_path: f64,
}

impl Timing {
    /// Slack of a gate, FO4 units (0 = on the critical path).
    pub fn slack(&self, g: GateId) -> f64 {
        self.required[g] - self.arrival[g]
    }

    /// Slack of a gate as a fraction of the critical-path delay.
    pub fn slack_fraction(&self, g: GateId) -> f64 {
        if self.critical_path <= 0.0 {
            return 1.0;
        }
        self.slack(g) / self.critical_path
    }
}

/// A combinational netlist (DAG of gates, appended in topological order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    gates: Vec<Gate>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a primary input; returns its id.
    pub fn input(&mut self, label: impl Into<String>) -> GateId {
        self.push(GateKind::Input, Vec::new(), label)
    }

    /// Add a gate fed by `fanin`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any fan-in id is not yet defined (the netlist is built in
    /// topological order) or if a non-input gate has no fan-in.
    pub fn gate(
        &mut self,
        kind: GateKind,
        fanin: impl Into<Vec<GateId>>,
        label: impl Into<String>,
    ) -> GateId {
        let fanin = fanin.into();
        assert!(
            kind == GateKind::Input || !fanin.is_empty(),
            "non-input gate needs fan-in"
        );
        self.push(kind, fanin, label)
    }

    fn push(&mut self, kind: GateKind, fanin: Vec<GateId>, label: impl Into<String>) -> GateId {
        let id = self.gates.len();
        for &f in &fanin {
            assert!(f < id, "fan-in {f} not yet defined (gate {id})");
        }
        self.gates.push(Gate {
            kind,
            fanin,
            label: label.into(),
        });
        id
    }

    /// Number of gates, including primary inputs.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of logic gates (excluding primary inputs).
    pub fn logic_gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind != GateKind::Input)
            .count()
    }

    /// Access a gate.
    pub fn gate_at(&self, id: GateId) -> &Gate {
        &self.gates[id]
    }

    /// Iterate over `(id, gate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate()
    }

    /// Static timing analysis with an optional per-gate delay multiplier
    /// (used to model a slower top layer: `penalty[g]` multiplies gate `g`'s
    /// intrinsic delay).
    pub fn timing_with(&self, penalty: impl Fn(GateId) -> f64) -> Timing {
        let n = self.gates.len();
        let mut arrival = vec![0.0f64; n];
        let mut fanout_count = vec![0usize; n];
        for (id, g) in self.iter() {
            let in_arr = g.fanin.iter().map(|&f| arrival[f]).fold(0.0f64, f64::max);
            arrival[id] = in_arr + g.kind.delay_fo4() * penalty(id);
            for &f in &g.fanin {
                fanout_count[f] += 1;
            }
        }
        let critical = arrival.iter().copied().fold(0.0f64, f64::max);
        // Required times: outputs (no fanout) are required at the critical
        // path time; propagate backwards.
        let mut required = vec![f64::INFINITY; n];
        for id in (0..n).rev() {
            if fanout_count[id] == 0 {
                required[id] = critical;
            }
            let g = &self.gates[id];
            let own = g.kind.delay_fo4() * penalty(id);
            for &f in &g.fanin {
                let req_f = required[id] - own;
                if req_f < required[f] {
                    required[f] = req_f;
                }
            }
        }
        Timing {
            arrival,
            required,
            critical_path: critical,
        }
    }

    /// Static timing analysis with nominal delays.
    pub fn timing(&self) -> Timing {
        self.timing_with(|_| 1.0)
    }

    /// Fraction of logic gates with slack below `frac` of the critical path
    /// (the paper's "gates in the critical path" under a slack threshold).
    pub fn critical_fraction(&self, frac: f64) -> f64 {
        let t = self.timing();
        let logic: Vec<GateId> = self
            .iter()
            .filter(|(_, g)| g.kind != GateKind::Input)
            .map(|(id, _)| id)
            .collect();
        if logic.is_empty() {
            return 0.0;
        }
        let crit = logic
            .iter()
            .filter(|&&id| t.slack_fraction(id) < frac)
            .count();
        crit as f64 / logic.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new();
        let mut prev = nl.input("in");
        for i in 0..n {
            prev = nl.gate(GateKind::Nand2, vec![prev], format!("g{i}"));
        }
        nl
    }

    #[test]
    fn chain_critical_path_is_sum() {
        let nl = chain(10);
        let t = nl.timing();
        assert!((t.critical_path - 8.0).abs() < 1e-9); // 10 * 0.8 FO4
    }

    #[test]
    fn all_chain_gates_are_critical() {
        let nl = chain(5);
        assert!((nl.critical_fraction(1e-9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_branch_has_slack() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        // Long path: three gates; short path: one gate; both feed a mux.
        let l1 = nl.gate(GateKind::Nand2, vec![a], "l1");
        let l2 = nl.gate(GateKind::Nand2, vec![l1], "l2");
        let l3 = nl.gate(GateKind::Nand2, vec![l2], "l3");
        let s1 = nl.gate(GateKind::Nand2, vec![a], "s1");
        let m = nl.gate(GateKind::Mux2, vec![l3, s1], "m");
        let t = nl.timing();
        assert!(t.slack(s1) > 1.0, "short path should have slack");
        assert!(t.slack(l3).abs() < 1e-9, "long path is critical");
        assert!(t.slack(m).abs() < 1e-9);
    }

    #[test]
    fn penalty_lengthens_path() {
        let nl = chain(4);
        let base = nl.timing().critical_path;
        let slowed = nl.timing_with(|_| 1.17).critical_path;
        assert!((slowed / base - 1.17).abs() < 1e-9);
    }

    #[test]
    fn required_times_consistent() {
        let nl = chain(6);
        let t = nl.timing();
        for (id, _) in nl.iter() {
            assert!(t.slack(id) > -1e-9, "no negative slack at nominal");
        }
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn rejects_forward_reference() {
        let mut nl = Netlist::new();
        let _ = nl.gate(GateKind::Inv, vec![5], "bad");
    }
}
