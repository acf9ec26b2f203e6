//! VM configuration: hosting flavor, clock rate, timer frequency.

use crate::cost::CostModel;

/// Which VM hosting mechanism delivers profiling events (paper §5).
///
/// The two production implementations differ in *where* the sampling check
/// lives, which determines which dynamic events a profiler can observe:
///
/// * **Jikes RVM** overloads the yieldpoint control word; prologue *and*
///   epilogue yieldpoints are taken while sampling is enabled, so both
///   method entries and method exits are sampleable events.
/// * **J9** overloads the method-entry runtime check; only entries are
///   sampleable.
///
/// In both cases the check is overloaded onto a test the VM performs
/// anyway, so an idle profiler adds zero cycles. A VM without any such
/// check would pay three instructions per entry; profilers model that case
/// with an explicit-check option (see
/// `cbs-profiler`'s `CbsConfig::explicit_entry_check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmFlavor {
    /// Yieldpoint-based hosting: entry, exit and backedge events.
    #[default]
    Jikes,
    /// Method-entry-check hosting: entry events only.
    J9,
}

impl VmFlavor {
    /// Whether this flavor delivers method-exit (epilogue) events.
    pub fn samples_exits(self) -> bool {
        matches!(self, VmFlavor::Jikes)
    }

    /// Whether this flavor delivers loop-backedge events.
    pub fn has_backedge_yieldpoints(self) -> bool {
        matches!(self, VmFlavor::Jikes)
    }
}

/// Complete VM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// Hosting mechanism.
    pub flavor: VmFlavor,
    /// Instruction cost model.
    pub cost: CostModel,
    /// Virtual clock rate. The default models a deliberately slow machine
    /// (10 MHz) so that benchmarks with realistic *relative* running times
    /// interpret quickly.
    pub cycles_per_second: u64,
    /// Timer-interrupt frequency. 100 Hz models the stock-Linux 10 ms
    /// granularity the paper cites as the finest available to user code.
    pub timer_hz: u64,
    /// Number of green threads, each running the entry method once.
    pub num_threads: u32,
    /// Call-stack depth limit (exceeding it is a [`VmError::StackOverflow`]
    /// trap).
    ///
    /// [`VmError::StackOverflow`]: crate::VmError::StackOverflow
    pub max_stack_depth: usize,
    /// Optional cycle budget; execution traps with
    /// [`VmError::OutOfFuel`](crate::VmError::OutOfFuel) when exceeded.
    pub max_cycles: Option<u64>,
    /// Maximum deterministic jitter applied to each timer period, in
    /// cycles.
    ///
    /// Real timer interrupts drift relative to the instruction stream; a
    /// perfectly periodic virtual timer can alias with a loop whose
    /// iteration cost divides the period, pinning every sample to one
    /// instruction. Each period is drawn from
    /// `[timer_period - jitter, timer_period + jitter]` by a seeded
    /// xorshift generator, so runs remain bit-reproducible.
    pub timer_jitter: u64,
    /// Seed for the timer-jitter generator.
    pub timer_seed: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            flavor: VmFlavor::Jikes,
            cost: CostModel::default(),
            cycles_per_second: 10_000_000,
            timer_hz: 100,
            num_threads: 1,
            max_stack_depth: 2048,
            max_cycles: None,
            timer_jitter: 100_000 / 8,
            timer_seed: 0x7134_A5A5,
        }
    }
}

impl VmConfig {
    /// Creates the default configuration for a flavor.
    pub fn with_flavor(flavor: VmFlavor) -> Self {
        Self {
            flavor,
            ..Self::default()
        }
    }

    /// Cycles between timer interrupts.
    ///
    /// # Panics
    ///
    /// Panics if `timer_hz` is zero.
    pub fn timer_period(&self) -> u64 {
        assert!(self.timer_hz > 0, "timer_hz must be positive");
        (self.cycles_per_second / self.timer_hz).max(1)
    }

    /// Converts a cycle count to simulated seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_second as f64
    }
}

/// The virtual timer: the clocks at which a configuration's ticks fall
/// due, in order.
///
/// The interpreter fires a tick once the clock has reached
/// [`deadline`](Self::deadline) and then [`advance`](Self::advance)s. The
/// sequence depends on the configuration alone, never on the program, so
/// a profiler can hold its own copy of any configuration's timer and
/// replay it against the clocks of the events it observes.
#[derive(Debug, Clone)]
pub struct TickSchedule {
    period: u64,
    jitter: u64,
    state: u64,
    next: u64,
}

impl TickSchedule {
    /// The timer of a run under `config`, before its first tick.
    ///
    /// # Panics
    ///
    /// Panics if `timer_hz` is zero.
    pub fn new(config: &VmConfig) -> Self {
        let period = config.timer_period();
        let mut schedule = Self {
            period,
            jitter: config.timer_jitter.min(period - 1),
            state: config.timer_seed | 1,
            next: 0,
        };
        schedule.next = schedule.draw_period();
        schedule
    }

    /// The clock at which the next tick falls due.
    #[inline]
    pub fn deadline(&self) -> u64 {
        self.next
    }

    /// Fires the due tick: returns its deadline and draws the next one.
    #[inline]
    pub fn advance(&mut self) -> u64 {
        let due = self.next;
        self.next += self.draw_period();
        due
    }

    /// One period from `[period - jitter, period + jitter]`.
    #[inline]
    fn draw_period(&mut self) -> u64 {
        if self.jitter == 0 {
            return self.period;
        }
        // xorshift64: deterministic, cheap, seeded.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.period - self.jitter + self.state % (2 * self.jitter + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_period_is_10ms() {
        let c = VmConfig::default();
        assert_eq!(c.timer_period(), 100_000);
        assert!((c.cycles_to_seconds(c.timer_period()) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn flavor_event_capabilities() {
        assert!(VmFlavor::Jikes.samples_exits());
        assert!(VmFlavor::Jikes.has_backedge_yieldpoints());
        assert!(!VmFlavor::J9.samples_exits());
        assert!(!VmFlavor::J9.has_backedge_yieldpoints());
    }

    #[test]
    #[should_panic(expected = "timer_hz must be positive")]
    fn zero_hz_panics() {
        let c = VmConfig {
            timer_hz: 0,
            ..VmConfig::default()
        };
        let _ = c.timer_period();
    }

    #[test]
    fn tick_periods_stay_within_the_clamped_jitter() {
        for (timer_jitter, lo, hi) in [(0, 100_000, 100_000), (12_500, 87_500, 112_500)] {
            let mut timer = TickSchedule::new(&VmConfig {
                timer_jitter,
                ..VmConfig::default()
            });
            let mut last = 0;
            for _ in 0..1_000 {
                let due = timer.advance();
                assert!((lo..=hi).contains(&(due - last)), "period {}", due - last);
                last = due;
            }
        }
        // A jitter of a whole period or more is clamped, so every
        // period stays at least one cycle and deadlines strictly rise.
        let mut timer = TickSchedule::new(&VmConfig {
            timer_hz: 5_000_000,
            timer_jitter: 50,
            ..VmConfig::default()
        });
        let mut last = 0;
        for _ in 0..1_000 {
            let due = timer.advance();
            assert!((1..=3).contains(&(due - last)), "period {}", due - last);
            last = due;
        }
    }

    #[test]
    fn with_flavor_sets_flavor_only() {
        let c = VmConfig::with_flavor(VmFlavor::J9);
        assert_eq!(c.flavor, VmFlavor::J9);
        assert_eq!(c.cycles_per_second, VmConfig::default().cycles_per_second);
    }
}
