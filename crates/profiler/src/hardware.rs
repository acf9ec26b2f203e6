//! Emulated hardware call sampling (§7).
//!
//! The paper's related-work section observes that a hardware mechanism
//! which samples executed call instructions (capturing caller PC and
//! target PC) could collect a DCG with essentially no software overhead —
//! the Pentium 4 "comes very close", offering either *low-overhead but
//! imprecise* or *precise but high-overhead* sampling.
//!
//! This profiler emulates the low-overhead/imprecise mode: a hardware
//! counter fires every `period`-th call event (no software cost until it
//! fires), but the reported sample suffers *skid* — with probability
//! `skid_probability` it is attributed to the previously executed call
//! instead of the one that triggered the counter. The ablation
//! experiments use it to show that CBS's accuracy is attainable in
//! software at comparable overhead, which is the paper's argument for
//! not waiting on micro-architecture-specific hardware.

use crate::costs::{OverheadMeter, ProfilingCosts};
use crate::traits::CallGraphProfiler;
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_prng::SmallRng;
use cbs_vm::{CallEvent, Profiler};

/// Configuration of the emulated hardware sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Sample every `period`-th dynamic call.
    pub period: u64,
    /// Probability a sample is attributed to the previous call (skid).
    pub skid_probability: f64,
    /// Cycles charged per delivered sample interrupt (servicing the
    /// performance-monitoring interrupt is not free even in hardware).
    pub costs: ProfilingCosts,
    /// Determinism seed for the skid draw.
    pub seed: u64,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self {
            period: 61,
            skid_probability: 0.35,
            costs: ProfilingCosts::default(),
            seed: 0xCAFE,
        }
    }
}

/// The emulated hardware call sampler.
#[derive(Debug)]
pub struct HardwareSampler {
    config: HardwareConfig,
    countdown: u64,
    previous: Option<CallEdge>,
    dcg: DynamicCallGraph,
    meter: OverheadMeter,
    samples: u64,
    rng: SmallRng,
}

impl HardwareSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `skid_probability` is outside
    /// `[0, 1]`.
    pub fn new(config: HardwareConfig) -> Self {
        assert!(config.period >= 1, "period must be >= 1");
        assert!(
            (0.0..=1.0).contains(&config.skid_probability),
            "skid probability must be in [0,1]"
        );
        let seed = config.seed;
        Self {
            config,
            countdown: 0,
            previous: None,
            dcg: DynamicCallGraph::new(),
            meter: OverheadMeter::new(),
            samples: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }
}

impl Profiler for HardwareSampler {
    fn on_entry(&mut self, event: &CallEvent<'_>) {
        // The counting itself is free: it happens in hardware.
        self.countdown += 1;
        if self.countdown >= self.config.period {
            self.countdown = 0;
            // Servicing the PMU interrupt costs a (cheap) trap.
            self.meter
                .charge(self.config.costs.tick_service_millicycles);
            self.samples += 1;
            let reported = if self.rng.gen_bool(self.config.skid_probability) {
                self.previous.unwrap_or(event.edge)
            } else {
                event.edge
            };
            self.dcg.record_sample(reported);
        }
        self.previous = Some(event.edge);
    }
}

impl CallGraphProfiler for HardwareSampler {
    fn name(&self) -> String {
        format!(
            "hardware(period={},skid={:.0}%)",
            self.config.period,
            self.config.skid_probability * 100.0
        )
    }

    fn dcg(&self) -> &DynamicCallGraph {
        &self.dcg
    }

    fn take_dcg(&mut self) -> DynamicCallGraph {
        std::mem::take(&mut self.dcg)
    }

    fn overhead_cycles(&self) -> u64 {
        self.meter.cycles()
    }

    fn samples_taken(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};
    use cbs_vm::{Frame, StackSlice, ThreadId};

    fn ev<'a>(frames: &'a [Frame], callee: u32) -> CallEvent<'a> {
        CallEvent {
            edge: CallEdge::new(
                MethodId::new(0),
                CallSiteId::new(callee),
                MethodId::new(callee),
            ),
            clock: 0,
            thread: ThreadId(0),
            stack: StackSlice::for_testing(frames),
        }
    }

    #[test]
    fn samples_every_period_th_call() {
        let mut h = HardwareSampler::new(HardwareConfig {
            period: 10,
            skid_probability: 0.0,
            ..HardwareConfig::default()
        });
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        for i in 0..100 {
            h.on_entry(&ev(&frames, i));
        }
        assert_eq!(h.samples_taken(), 10);
        assert_eq!(h.dcg().total_weight(), 10.0);
    }

    #[test]
    fn skid_attributes_to_previous_call() {
        let mut h = HardwareSampler::new(HardwareConfig {
            period: 2,
            skid_probability: 1.0,
            ..HardwareConfig::default()
        });
        let frames = vec![Frame::new(MethodId::new(0), 0, None)];
        h.on_entry(&ev(&frames, 1)); // countdown 1
        h.on_entry(&ev(&frames, 2)); // fires; skid -> reported as 1
        assert_eq!(h.samples_taken(), 1);
        assert_eq!(h.dcg().incoming_weight(MethodId::new(1)), 1.0);
        assert_eq!(h.dcg().incoming_weight(MethodId::new(2)), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut h = HardwareSampler::new(HardwareConfig {
                period: 3,
                skid_probability: 0.5,
                seed,
                ..HardwareConfig::default()
            });
            let frames = vec![Frame::new(MethodId::new(0), 0, None)];
            for i in 0..200 {
                h.on_entry(&ev(&frames, i % 7));
            }
            h.dcg().edges_by_weight()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    #[should_panic(expected = "period must be >= 1")]
    fn zero_period_rejected() {
        let _ = HardwareSampler::new(HardwareConfig {
            period: 0,
            ..HardwareConfig::default()
        });
    }
}
