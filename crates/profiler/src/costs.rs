//! Simulated cost accounting for profiling actions.
//!
//! Profilers charge their own virtual overhead rather than perturbing the
//! VM's base clock, so any number of profiler configurations can observe
//! one deterministic run and report `overhead% = own_cycles / base_cycles`
//! independently.
//!
//! Costs are expressed in **millicycles** (1/1000 of a virtual cycle).
//! The virtual machine's clock is deliberately scaled down (default 10 MHz
//! vs. the paper's 2.8 GHz hardware) so that benchmarks interpret quickly;
//! profiling actions must be scaled by the same factor to keep the
//! *ratio* of profiling work to timer period — the quantity that
//! determines the overhead columns of Tables 2 and 3 — faithful. A stack
//! sample that costs ≈1250 cycles on the paper's hardware costs
//! 1250/280 ≈ 4.5 scaled cycles = 4500 millicycles here.

/// Millicycle prices for each profiling action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilingCosts {
    /// One call-stack sample: walk the stack, update the profile
    /// repository. (≈1250 unscaled cycles.)
    pub sample_millicycles: u64,
    /// Additional cost per stack frame walked during a sample (deep
    /// stacks cost more to walk; ≈30 unscaled cycles per frame).
    pub sample_frame_millicycles: u64,
    /// One countdown decrement + test, paid per method entry/exit while a
    /// sampling window is open (≈11 unscaled cycles: load, dec, test,
    /// store).
    pub countdown_millicycles: u64,
    /// Servicing a timer interrupt in the profiler (setting the sampling
    /// flag / yieldpoint control word).
    pub tick_service_millicycles: u64,
    /// One explicit method-entry flag check (three instructions: load,
    /// compare, branch) — paid on *every* entry, but only by VMs that
    /// cannot overload an existing entry check (§4 "Implementation
    /// Options").
    pub entry_check_millicycles: u64,
    /// Installing or uninstalling a method-prologue listener by code
    /// patching (Suganuma-style profilers).
    pub patch_millicycles: u64,
    /// One exhaustive-instrumentation counter update, paid per call
    /// (the Vortex "PIC counters" that cost 15–50%).
    pub instrument_millicycles: u64,
}

impl Default for ProfilingCosts {
    fn default() -> Self {
        Self {
            sample_millicycles: 4_500,
            sample_frame_millicycles: 100,
            countdown_millicycles: 40,
            tick_service_millicycles: 300,
            entry_check_millicycles: 40,
            patch_millicycles: 3_000,
            instrument_millicycles: 18_000,
        }
    }
}

impl ProfilingCosts {
    /// Total cost of one sample whose stack walk covered `frames` frames.
    pub fn sample_cost_millicycles(&self, frames: usize) -> u64 {
        self.sample_millicycles + self.sample_frame_millicycles * frames as u64
    }
}

/// Accumulates millicycle charges and reports whole overhead cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadMeter {
    millicycles: u64,
}

impl OverheadMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a charge.
    pub fn charge(&mut self, millicycles: u64) {
        self.millicycles += millicycles;
    }

    /// Total charged, in whole cycles (rounded down).
    pub fn cycles(&self) -> u64 {
        self.millicycles / 1000
    }

    /// Total charged, in exact fractional cycles.
    pub fn cycles_f64(&self) -> f64 {
        self.millicycles as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_rounds() {
        let mut m = OverheadMeter::new();
        m.charge(1500);
        m.charge(700);
        assert_eq!(m.cycles(), 2);
        assert!((m.cycles_f64() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn default_costs_keep_paper_ratios() {
        // With the default 100_000-cycle timer period, a (stride=1,
        // samples=8192) configuration should cost roughly 8192 samples ×
        // 4.5 cycles ≈ 37% of a period — the magnitude Table 2A reports
        // for its largest samples-per-tick row.
        let c = ProfilingCosts::default();
        let per_tick = 8192 * c.sample_millicycles / 1000;
        let pct = 100.0 * per_tick as f64 / 100_000.0;
        assert!((30.0..45.0).contains(&pct), "{pct}% out of expected band");
    }
}
