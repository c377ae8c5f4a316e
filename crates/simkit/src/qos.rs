//! Overload protection: per-tenant admission control, deadline-based
//! load shedding and circuit breaking — all in deterministic virtual
//! time.
//!
//! Three cooperating mechanisms, applied in order of cost:
//!
//! 1. **Admission** ([`Admission`]) — a per-tenant token bucket refilled
//!    from virtual-time deltas plus an integer EWMA of observed service
//!    latency. A query is shed *at admission* when the tenant's bucket
//!    is empty ([`Decision::ShedRate`]) or when the latency EWMA
//!    predicts its virtual-time deadline cannot be met
//!    ([`Decision::ShedDeadline`]) — before it burns CPU, locks or
//!    fabric bandwidth.
//! 2. **Circuit breaker** ([`CircuitBreaker`]) — wraps a flaky
//!    dependency (a lane's fabric path in the overload harness). Trips open
//!    on consecutive failures, fast-fails while open, and closes again
//!    through a half-open probe after a virtual-time cooldown.
//! 3. **Brownout** ([`Decision::Brownout`]) — a tenant flagged by the
//!    control plane is *served degraded* (storage-direct, no shared
//!    buffer-pool admission) rather than dropped; the flag is set and
//!    cleared serially at virtual-time barriers with hysteresis.
//!
//! Every decision is a pure function of virtual time and per-tenant
//! state, so a rerun is bit-identical. A
//! harness that builds no gate and no breaker
//! (`OverloadConfig::qos = false`) admits every query and leaves the
//! simulation unperturbed.

use crate::SimTime;

/// Token-bucket scale: one admission costs `TOKEN` units; a bucket
/// refills at `ops_per_sec * elapsed_ns` units. Integer-only, so refill
/// arithmetic is exact and deterministic.
pub const TOKEN: u64 = 1_000_000_000;

/// Static admission contract for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantClass {
    /// Sustained admission rate (operations per simulated second).
    pub ops_per_sec: u64,
    /// Bucket depth: how many operations the tenant may burst above the
    /// sustained rate.
    pub burst: u64,
    /// Virtual-time deadline each query carries (ns). Admission sheds a
    /// query when the tenant's latency EWMA exceeds this.
    pub deadline_ns: u64,
    /// Brownout priority: lower values are degraded first.
    pub priority: u8,
}

impl TenantClass {
    /// A tenant class with default (high) brownout priority.
    pub fn new(ops_per_sec: u64, burst: u64, deadline_ns: u64) -> Self {
        TenantClass {
            ops_per_sec,
            burst,
            deadline_ns,
            priority: 1,
        }
    }

    /// Mark the tenant as the first candidate for brownout.
    pub fn low_priority(mut self) -> Self {
        self.priority = 0;
        self
    }
}

/// Admission contracts for a set of tenants (tenant id = index).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QosConfig {
    /// Per-tenant classes.
    pub tenants: Vec<TenantClass>,
}

impl QosConfig {
    /// Empty config; add tenants with [`QosConfig::tenant`].
    pub fn new() -> Self {
        QosConfig::default()
    }

    /// Append a tenant class (its id is its position).
    pub fn tenant(mut self, class: TenantClass) -> Self {
        self.tenants.push(class);
        self
    }
}

/// Config validation: a bad config fails fast at construction.
fn validate(cfg: &QosConfig) {
    assert!(!cfg.tenants.is_empty(), "QosConfig needs at least 1 tenant");
    for (i, t) in cfg.tenants.iter().enumerate() {
        assert!(t.ops_per_sec > 0, "tenant {i}: ops_per_sec must be > 0");
        assert!(t.burst > 0, "tenant {i}: burst must be > 0");
        assert!(t.deadline_ns > 0, "tenant {i}: deadline_ns must be > 0");
    }
}

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the query normally.
    Admit,
    /// Shed: the tenant's token bucket is empty (rate overrun).
    ShedRate,
    /// Shed: the latency EWMA says the deadline cannot be met.
    ShedDeadline,
    /// Serve degraded (storage-direct): the tenant is browned out.
    Brownout,
}

impl Decision {
    /// True only for [`Decision::Admit`].
    pub fn admitted(self) -> bool {
        self == Decision::Admit
    }
}

/// Per-tenant admission counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted.
    pub admitted: u64,
    /// Queries shed on an empty token bucket.
    pub shed_rate: u64,
    /// Queries shed on a predicted deadline miss.
    pub shed_deadline: u64,
    /// Queries served degraded under brownout.
    pub browned: u64,
}

impl AdmissionStats {
    /// Total queries shed (rate + deadline; browned queries are served).
    pub fn shed(&self) -> u64 {
        self.shed_rate + self.shed_deadline
    }

    /// Fold another tenant's counters into this one.
    pub fn absorb(&mut self, other: &AdmissionStats) {
        self.admitted += other.admitted;
        self.shed_rate += other.shed_rate;
        self.shed_deadline += other.shed_deadline;
        self.browned += other.browned;
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub trip_consecutive: u32,
    /// Virtual-time cooldown before an open breaker allows a half-open
    /// probe (ns).
    pub cooldown_ns: u64,
    /// Consecutive probe successes required to close again.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_consecutive: 3,
            cooldown_ns: 1_000_000,
            half_open_probes: 1,
        }
    }
}

fn validate_breaker(cfg: &BreakerConfig) {
    assert!(cfg.trip_consecutive > 0, "trip_consecutive must be > 0");
    assert!(cfg.cooldown_ns > 0, "cooldown_ns must be > 0");
    assert!(cfg.half_open_probes > 0, "half_open_probes must be > 0");
}

/// Breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    #[default]
    Closed,
    /// Tripped: calls fast-fail until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe calls go through; a success closes, a
    /// failure reopens.
    HalfOpen,
}

/// Breaker counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/half-open → open transitions.
    pub trips: u64,
    /// Calls refused while open.
    pub fast_fails: u64,
    /// Probe calls allowed in half-open.
    pub probes: u64,
    /// Half-open → closed transitions.
    pub recoveries: u64,
}

/// Integer token bucket: `level` counts `TOKEN`-scaled units,
/// refilled lazily from the elapsed virtual time.
#[derive(Debug, Clone)]
struct Bucket {
    level: u64,
    cap: u64,
    rate: u64,
    last: u64,
}

impl Bucket {
    fn refill(&mut self, now_ns: u64) {
        if now_ns <= self.last {
            return;
        }
        let dt = now_ns - self.last;
        self.last = now_ns;
        self.level = self
            .level
            .saturating_add(dt.saturating_mul(self.rate))
            .min(self.cap);
    }
}

/// Per-tenant admission gate: token buckets + latency EWMAs +
/// brownout flags. Plain data, so a cluster harness can give each lane
/// the gate for its own tenant.
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: QosConfig,
    buckets: Vec<Bucket>,
    ewma_ns: Vec<u64>,
    browned: Vec<bool>,
    stats: Vec<AdmissionStats>,
}

impl Admission {
    /// Build the gate; buckets start full.
    pub fn new(cfg: &QosConfig) -> Self {
        validate(cfg);
        let buckets = cfg
            .tenants
            .iter()
            .map(|t| Bucket {
                level: t.burst.saturating_mul(TOKEN),
                cap: t.burst.saturating_mul(TOKEN),
                rate: t.ops_per_sec,
                last: 0,
            })
            .collect();
        let n = cfg.tenants.len();
        Admission {
            cfg: cfg.clone(),
            buckets,
            ewma_ns: vec![0; n],
            browned: vec![false; n],
            stats: vec![AdmissionStats::default(); n],
        }
    }

    /// Admission check for one query from `tenant` at virtual time
    /// `now`. Order of checks: brownout (served degraded, no token
    /// spent), deadline (shed before burning a token), rate.
    pub fn admit(&mut self, tenant: usize, now: SimTime) -> Decision {
        let now_ns = now.as_nanos();
        self.buckets[tenant].refill(now_ns);
        if self.browned[tenant] {
            self.stats[tenant].browned += 1;
            return Decision::Brownout;
        }
        let deadline = self.cfg.tenants[tenant].deadline_ns;
        let ewma = self.ewma_ns[tenant];
        if ewma > deadline {
            // Shedding relieves the queue the EWMA is measuring:
            // decay it so the gate re-opens once load actually
            // drops (pure shed loops would otherwise never re-probe).
            self.ewma_ns[tenant] = ewma - ewma / 8;
            self.stats[tenant].shed_deadline += 1;
            return Decision::ShedDeadline;
        }
        if self.buckets[tenant].level < TOKEN {
            self.stats[tenant].shed_rate += 1;
            return Decision::ShedRate;
        }
        self.buckets[tenant].level -= TOKEN;
        self.stats[tenant].admitted += 1;
        Decision::Admit
    }

    /// Feed an observed service latency into the tenant's EWMA
    /// (integer `(7*ewma + lat) / 8`).
    pub fn observe(&mut self, tenant: usize, latency_ns: u64) {
        let e = self.ewma_ns[tenant];
        self.ewma_ns[tenant] = if e == 0 {
            latency_ns
        } else {
            (e.saturating_mul(7).saturating_add(latency_ns)) / 8
        };
    }

    /// Flag / unflag a tenant for brownout (degraded service).
    pub fn set_brownout(&mut self, tenant: usize, on: bool) {
        self.browned[tenant] = on;
    }

    /// Whether `tenant` is currently browned out.
    pub fn browned(&self, tenant: usize) -> bool {
        self.browned[tenant]
    }

    /// Current latency EWMA for `tenant` (0 until first observation).
    pub fn ewma_ns(&self, tenant: usize) -> u64 {
        self.ewma_ns[tenant]
    }

    /// Counters for `tenant`.
    pub fn stats(&self, tenant: usize) -> AdmissionStats {
        self.stats[tenant]
    }

    /// Counters folded over all tenants.
    pub fn total(&self) -> AdmissionStats {
        let mut t = AdmissionStats::default();
        for s in &self.stats {
            t.absorb(s);
        }
        t
    }
}

/// Consecutive-failure circuit breaker over virtual time.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    opened_at: u64,
    probe_ok: u32,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        validate_breaker(&cfg);
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: 0,
            probe_ok: 0,
            stats: BreakerStats::default(),
        }
    }

    /// May a call proceed at virtual time `now`? Open breakers
    /// fast-fail until the cooldown elapses, then allow half-open
    /// probes.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.as_nanos() >= self.opened_at.saturating_add(self.cfg.cooldown_ns) {
                    self.state = BreakerState::HalfOpen;
                    self.probe_ok = 0;
                    self.stats.probes += 1;
                    true
                } else {
                    self.stats.fast_fails += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.stats.probes += 1;
                true
            }
        }
    }

    /// Record a successful call.
    pub fn on_success(&mut self, _now: SimTime) {
        self.consecutive = 0;
        if self.state == BreakerState::HalfOpen {
            self.probe_ok += 1;
            if self.probe_ok >= self.cfg.half_open_probes {
                self.state = BreakerState::Closed;
                self.stats.recoveries += 1;
            }
        }
    }

    /// Record a failed call; may trip (or re-open) the breaker.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now.as_nanos();
                self.stats.trips += 1;
            }
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.cfg.trip_consecutive {
                    self.state = BreakerState::Open;
                    self.opened_at = now.as_nanos();
                    self.consecutive = 0;
                    self.stats.trips += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_tenant(rate: u64, burst: u64, deadline: u64) -> QosConfig {
        QosConfig::new().tenant(TenantClass::new(rate, burst, deadline))
    }

    #[test]
    fn bucket_sheds_at_rate_and_refills_with_virtual_time() {
        let mut adm = Admission::new(&one_tenant(1_000, 2, 1_000_000));
        // Burst of 2 admitted immediately, the third sheds.
        assert_eq!(adm.admit(0, SimTime::ZERO), Decision::Admit);
        assert_eq!(adm.admit(0, SimTime::ZERO), Decision::Admit);
        assert_eq!(adm.admit(0, SimTime::ZERO), Decision::ShedRate);
        // 1 ms at 1000 ops/s refills exactly one token.
        let t = SimTime::from_millis(1);
        assert_eq!(adm.admit(0, t), Decision::Admit);
        assert_eq!(adm.admit(0, t), Decision::ShedRate);
        let s = adm.stats(0);
        assert_eq!((s.admitted, s.shed_rate), (3, 2));
    }

    #[test]
    fn deadline_shedding_follows_the_latency_ewma() {
        let mut adm = Admission::new(&one_tenant(1_000_000, 1_000, 10_000));
        // Healthy latency: admitted.
        adm.observe(0, 5_000);
        assert_eq!(adm.admit(0, SimTime(1)), Decision::Admit);
        // Latency blows past the deadline: shed at admission.
        for _ in 0..8 {
            adm.observe(0, 100_000);
        }
        assert!(adm.ewma_ns(0) > 10_000);
        assert_eq!(adm.admit(0, SimTime(2)), Decision::ShedDeadline);
        // Sheds decay the EWMA until the gate re-opens.
        let mut sheds = 0;
        while adm.admit(0, SimTime(3 + sheds)) == Decision::ShedDeadline {
            sheds += 1;
            assert!(sheds < 100, "EWMA decay must re-open the gate");
        }
        assert!(sheds > 0);
        assert!(adm.stats(0).shed_deadline >= sheds);
    }

    #[test]
    fn brownout_serves_degraded_without_spending_tokens() {
        let mut adm = Admission::new(&one_tenant(1, 1, 1_000_000));
        adm.set_brownout(0, true);
        assert!(adm.browned(0));
        for _ in 0..5 {
            assert_eq!(adm.admit(0, SimTime::ZERO), Decision::Brownout);
        }
        assert_eq!(adm.stats(0).browned, 5);
        // Restore: the untouched bucket still holds its burst token.
        adm.set_brownout(0, false);
        assert_eq!(adm.admit(0, SimTime::ZERO), Decision::Admit);
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recovers() {
        let cfg = BreakerConfig {
            trip_consecutive: 3,
            cooldown_ns: 1_000,
            half_open_probes: 1,
        };
        let mut b = CircuitBreaker::new(cfg);
        // Two failures + a success: the consecutive counter resets.
        b.on_failure(SimTime(10));
        b.on_failure(SimTime(20));
        b.on_success(SimTime(30));
        assert_eq!(b.state(), BreakerState::Closed);
        // Three consecutive failures trip it.
        b.on_failure(SimTime(40));
        b.on_failure(SimTime(50));
        b.on_failure(SimTime(60));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        // Fast-fail inside the cooldown window.
        assert!(!b.allow(SimTime(100)));
        assert_eq!(b.stats().fast_fails, 1);
        // Cooldown over: a half-open probe goes through and closes it.
        assert!(b.allow(SimTime(1_100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success(SimTime(1_150));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().recoveries, 1);
    }

    #[test]
    fn half_open_failure_reopens() {
        let cfg = BreakerConfig {
            trip_consecutive: 1,
            cooldown_ns: 1_000,
            half_open_probes: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        b.on_failure(SimTime(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(SimTime(1_000)));
        // The probe fails: straight back to open, cooldown restarts.
        b.on_failure(SimTime(1_010));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 2);
        assert!(!b.allow(SimTime(1_020)));
        // Two probe successes required to close this one.
        assert!(b.allow(SimTime(2_100)));
        b.on_success(SimTime(2_110));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success(SimTime(2_120));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    #[should_panic(expected = "ops_per_sec")]
    fn zero_rate_is_rejected() {
        let _ = Admission::new(&one_tenant(0, 1, 1));
    }

    /// Seeded-random schedules of admissions and arbitrary virtual-time
    /// jumps (including hour-long idle gaps): at any frozen instant the
    /// bucket never serves more than `burst` back-to-back admissions,
    /// and after an idle gap long enough to fill the bucket it serves
    /// *exactly* `burst` — the refill saturates at the cap instead of
    /// banking unbounded credit.
    #[test]
    fn prop_refill_never_overshoots_burst() {
        // Drain a clone at a frozen instant: back-to-back admits until
        // the bucket sheds. The clone leaves the schedule undisturbed.
        fn drain(adm: &Admission, now: SimTime, burst: u64) -> u64 {
            let mut probe = adm.clone();
            let mut served = 0;
            while probe.admit(0, now) == Decision::Admit {
                served += 1;
                assert!(served <= burst, "bucket overshot its burst depth");
            }
            served
        }
        for seed in 0..24u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(0x0B05 + seed);
            let rate = rng.gen_range(1..5_000u64);
            let burst = rng.gen_range(1..8u64);
            let mut adm = Admission::new(&one_tenant(rate, burst, 1_000_000));
            let mut now_ns = 0u64;
            for _ in 0..400 {
                now_ns += rng.gen_range(0..2_000_000u64);
                let now = SimTime(now_ns);
                match rng.gen_range(0..3u32) {
                    0 => {
                        let _ = adm.admit(0, now);
                    }
                    1 => {
                        // Hour-long idle gap: the bucket must cap at
                        // exactly `burst`, not `burst + banked credit`.
                        now_ns += 3_600_000_000_000;
                        assert_eq!(
                            drain(&adm, SimTime(now_ns), burst),
                            burst,
                            "seed {seed}: a full bucket holds exactly `burst` tokens"
                        );
                    }
                    _ => {
                        let _ = drain(&adm, now, burst);
                    }
                }
            }
        }
    }

    /// Zero long-run drift: the refill credits `dt * rate` raw units, so
    /// sub-[`TOKEN`] remainders carry across refills instead of being
    /// truncated. Greedily draining under seeded-random step sizes must
    /// admit *exactly* `burst + floor(elapsed * rate / TOKEN)` queries —
    /// any stranded remainder shows up as a missing admission.
    #[test]
    fn prop_refill_strands_no_sub_token_remainder() {
        for seed in 0..16u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(0xD21F + seed);
            // rate * max_step < TOKEN and burst = 2, so a greedy drain
            // (level < TOKEN after each step) can never hit the cap and
            // clip credit: every raw unit must be accounted for.
            let rate = rng.gen_range(1..=333u64);
            let burst = 2u64;
            let mut adm = Admission::new(&one_tenant(rate, burst, 1_000_000));
            let mut now_ns = 0u64;
            let mut admitted = 0u64;
            // Drain the initial burst at t=0 so the bucket is empty
            // before any time elapses — otherwise the first refill
            // clips against the still-full cap and the count is off.
            while adm.admit(0, SimTime::ZERO) == Decision::Admit {
                admitted += 1;
            }
            assert_eq!(admitted, burst, "seed {seed}: full bucket = burst");
            for _ in 0..3_000 {
                now_ns += rng.gen_range(1..=3_000_000u64);
                while adm.admit(0, SimTime(now_ns)) == Decision::Admit {
                    admitted += 1;
                }
            }
            let exact = burst + (now_ns as u128 * rate as u128 / TOKEN as u128) as u64;
            assert_eq!(
                admitted, exact,
                "seed {seed}: rate {rate} over {now_ns} ns drifted from the exact model"
            );
            assert_eq!(adm.stats(0).admitted, admitted);
        }
    }

    /// Deadline shedding is strict: a query is shed only when the EWMA
    /// *exceeds* the deadline. An EWMA sitting exactly on the deadline
    /// still admits; one raw nanosecond past it sheds.
    #[test]
    fn deadline_boundary_admits_at_exactly_the_deadline() {
        for seed in 0..16u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(0xDEAD + seed);
            let deadline = rng.gen_range(1..1_000_000u64);
            // The first observation seeds the EWMA verbatim, so the
            // boundary is exact by construction.
            let mut at = Admission::new(&one_tenant(1_000_000, 10, deadline));
            at.observe(0, deadline);
            assert_eq!(at.ewma_ns(0), deadline);
            assert_eq!(
                at.admit(0, SimTime(1)),
                Decision::Admit,
                "EWMA == deadline ({deadline} ns) must still admit"
            );
            let mut over = Admission::new(&one_tenant(1_000_000, 10, deadline));
            over.observe(0, deadline + 1);
            assert_eq!(
                over.admit(0, SimTime(1)),
                Decision::ShedDeadline,
                "EWMA one ns past the deadline ({deadline} ns) must shed"
            );
        }
    }
}
