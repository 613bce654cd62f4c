//! The energy model of §3.1.
//!
//! Costs are expressed in *CPU-instruction equivalents* so the paper's
//! headline ratio is directly encoded: on a Berkeley MICA mote, transmitting
//! one bit costs as much energy as ~1,000 CPU instructions. A value on the
//! wire is a 64-bit word, receiving costs roughly half of transmitting, and
//! broadcast radios make every node within range of a sender pay the
//! receive cost whether or not the message was addressed to it.

/// Energy cost constants, in CPU-instruction equivalents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Cost for a node to transmit one value (64 bits × 1000 instr/bit).
    pub tx_per_value: f64,
    /// Cost for a node to receive (or overhear) one value.
    pub rx_per_value: f64,
    /// CPU cost charged per input value compressed (SBR's processing is
    /// thousands of instructions per value — still orders of magnitude
    /// below one hop of radio).
    pub cpu_per_value_compressed: f64,
    /// Cost of keeping the radio in idle listening for one batch period.
    /// Duty-cycled MACs make this small but never zero; it puts a floor
    /// under how far compression alone can stretch the battery.
    pub idle_per_period: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            tx_per_value: 64_000.0,
            rx_per_value: 32_000.0,
            cpu_per_value_compressed: 3_000.0,
            idle_per_period: 1_000.0,
        }
    }
}

/// Per-node energy ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Instruction-equivalents spent transmitting.
    pub tx: f64,
    /// Instruction-equivalents spent receiving frames addressed to us.
    pub rx: f64,
    /// Instruction-equivalents spent overhearing broadcasts addressed to
    /// someone else (§3.1: every node in a sender's range pays).
    pub overhear: f64,
    /// Instruction-equivalents spent idle-listening between batches.
    pub idle: f64,
    /// Instruction-equivalents spent on local processing.
    pub cpu: f64,
}

impl EnergyLedger {
    /// Total energy spent.
    pub fn total(&self) -> f64 {
        self.tx + self.rx + self.overhear + self.idle + self.cpu
    }

    /// Charge a transmission of `values` values.
    pub fn charge_tx(&mut self, model: &EnergyModel, values: usize) {
        self.tx += model.tx_per_value * values as f64;
    }

    /// Charge a reception of `values` values addressed to this node.
    pub fn charge_rx(&mut self, model: &EnergyModel, values: usize) {
        self.rx += model.rx_per_value * values as f64;
    }

    /// Charge overhearing `values` values addressed to another node. Same
    /// radio cost as [`EnergyLedger::charge_rx`], tracked separately so
    /// reports can show how much of the budget broadcast wastes.
    pub fn charge_overhear(&mut self, model: &EnergyModel, values: usize) {
        self.overhear += model.rx_per_value * values as f64;
    }

    /// Charge `periods` batch periods of idle listening.
    pub fn charge_idle(&mut self, model: &EnergyModel, periods: usize) {
        self.idle += model.idle_per_period * periods as f64;
    }

    /// Charge compression work over `values` input values.
    pub fn charge_cpu(&mut self, model: &EnergyModel, values: usize) {
        self.cpu += model.cpu_per_value_compressed * values as f64;
    }
}

/// Battery + lifetime estimation: §3.1 motivates data reduction with
/// battery capacities growing only 2–3% per year; this turns a ledger into
/// the paper's bottom line — *how much longer does the network live?*
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Capacity in CPU-instruction-equivalents (the unit of
    /// [`EnergyModel`]). Two AA cells on a MICA-class mote are on the
    /// order of 1e13 instruction-equivalents.
    pub capacity: f64,
}

impl Default for Battery {
    fn default() -> Self {
        Battery { capacity: 1e13 }
    }
}

impl Battery {
    /// How many *periods* a node survives if each period costs what
    /// `ledger` recorded. Returns `f64::INFINITY` for an idle node.
    pub fn periods(&self, ledger: &EnergyLedger) -> f64 {
        let per_period = ledger.total();
        if per_period <= 0.0 {
            f64::INFINITY
        } else {
            self.capacity / per_period
        }
    }

    /// Network lifetime under the first-node-death criterion: the minimum
    /// over the *sensor* nodes (index 0, the mains-powered base station,
    /// is excluded).
    ///
    /// A network with no sensors — an empty slice, or only the base
    /// station — lives forever: this returns `f64::INFINITY`, never NaN
    /// and never panicking. Ledgers whose totals are NaN (corrupt input)
    /// are skipped rather than poisoning the minimum.
    pub fn network_lifetime(&self, ledgers: &[EnergyLedger]) -> f64 {
        if ledgers.len() <= 1 {
            return f64::INFINITY;
        }
        ledgers
            .iter()
            .skip(1)
            .map(|l| self.periods(l))
            .filter(|p| !p.is_nan())
            .fold(f64::INFINITY, f64::min)
    }

    /// Which sensor dies first (`None` if every sensor is idle).
    pub fn first_to_die(&self, ledgers: &[EnergyLedger]) -> Option<usize> {
        ledgers
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, l)| l.total() > 0.0)
            .min_by(|a, b| self.periods(a.1).total_cmp(&self.periods(b.1)))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_dwarfs_cpu_by_default() {
        let m = EnergyModel::default();
        // Compressing a value then *not* sending it must be far cheaper
        // than sending it raw over even one hop.
        assert!(m.cpu_per_value_compressed * 20.0 < m.tx_per_value);
    }

    #[test]
    fn lifetime_is_min_over_sensors_excluding_base() {
        let m = EnergyModel::default();
        let mut ledgers = vec![EnergyLedger::default(); 4];
        ledgers[0].charge_rx(&m, 1_000_000); // base: busy but irrelevant
        ledgers[1].charge_tx(&m, 10);
        ledgers[2].charge_tx(&m, 100); // hungriest sensor
        ledgers[3].charge_tx(&m, 50);
        let b = Battery {
            capacity: 64_000.0 * 1_000.0,
        };
        assert_eq!(b.first_to_die(&ledgers), Some(2));
        assert!((b.network_lifetime(&ledgers) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn idle_network_lives_forever() {
        let b = Battery::default();
        let ledgers = vec![EnergyLedger::default(); 3];
        assert!(b.network_lifetime(&ledgers).is_infinite());
        assert_eq!(b.first_to_die(&ledgers), None);
    }

    #[test]
    fn ledger_accumulates() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::default();
        l.charge_tx(&m, 10);
        l.charge_rx(&m, 10);
        l.charge_cpu(&m, 100);
        assert_eq!(l.tx, 640_000.0);
        assert_eq!(l.rx, 320_000.0);
        assert_eq!(l.cpu, 300_000.0);
        assert_eq!(l.total(), 1_260_000.0);
    }

    #[test]
    fn overhear_and_idle_are_tracked_separately_but_count_toward_total() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::default();
        l.charge_overhear(&m, 10);
        l.charge_idle(&m, 4);
        assert_eq!(l.rx, 0.0, "overhearing is not addressed reception");
        assert_eq!(l.overhear, 320_000.0, "overhearing bills the rx rate");
        assert_eq!(l.idle, 4_000.0);
        assert_eq!(l.total(), 324_000.0);
    }

    #[test]
    fn lifetime_of_empty_or_base_only_network_is_infinite() {
        let b = Battery::default();
        assert!(b.network_lifetime(&[]).is_infinite());
        let mut base = EnergyLedger::default();
        base.charge_rx(&EnergyModel::default(), 1_000);
        assert!(b.network_lifetime(&[base]).is_infinite());
        assert_eq!(b.first_to_die(&[]), None);
    }

    #[test]
    fn lifetime_ignores_nan_ledgers() {
        let b = Battery {
            capacity: 64_000.0 * 100.0,
        };
        let m = EnergyModel::default();
        let mut ledgers = vec![EnergyLedger::default(); 3];
        ledgers[1].tx = f64::NAN;
        ledgers[2].charge_tx(&m, 10);
        let life = b.network_lifetime(&ledgers);
        assert!((life - 10.0).abs() < 1e-9, "NaN ledger skipped, got {life}");
    }
}
