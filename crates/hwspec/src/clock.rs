//! Simulation-time vocabulary shared by every subsystem the node steps:
//! nanosecond time and the deterministic keyed noise streams that decouple
//! RNG draws from the stepping policy.
//!
//! The paper's experiments span five orders of magnitude in time resolution
//! — microsecond c-state wake-ups next to multi-second power averages. The
//! node steps every run on one fixed tick, and its event engine replaces
//! the full model with a cheap replay over spans in which no discrete event
//! can fire (see `hsw-node`'s engine module). For both engines to agree bit
//! for bit, every random draw must be a pure function of *(seed, domain,
//! event time)* — never of how many steps the engine happened to take or
//! which body it ran — which is what [`DomainNoise`] provides.

/// Simulation time in nanoseconds (the engine-wide clock unit).
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const US: Ns = 1_000;

/// Stable domain tags for keyed noise streams. The values are part of the
/// determinism contract (they feed the hash): renumbering them changes
/// every seeded simulation.
pub mod domain {
    /// P-state opportunity-clock jitter (plus the socket id).
    pub const PSTATE: u64 = 0x10;
    /// RAPL measurement-error stream (plus the socket id).
    pub const RAPL: u64 = 0x20;
    /// LMG450 meter: per-instrument gain and per-sample noise.
    pub const METER: u64 = 0x30;
    /// Manufacturing variation of one fleet chip (leakage, Vmin, turbo
    /// binning, RAPL calibration trim). Drawn once per node at t = 0.
    pub const FLEET: u64 = 0x40;
}

/// SplitMix64 finalizer — the mixer behind every keyed draw.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a salt (campaign index,
/// socket id, sweep point, …). Pure and order-free: the child depends on
/// `(seed, salt)` only, never on how many seeds were derived before.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A deterministic noise stream keyed by *(seed, domain, event time)*.
///
/// Unlike a sequential RNG, a draw does not consume hidden state: the value
/// at `(t_ns, salt)` is a pure function of the key, so two simulations that
/// evaluate the same domain at the same instants agree bit-for-bit no
/// matter how their engines subdivided the time in between. This is the
/// property that lets `--engine fixed` and `--engine event` produce
/// byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainNoise {
    key: u64,
}

impl DomainNoise {
    /// Create the stream for `domain` under a simulation `seed`.
    pub fn new(seed: u64, domain: u64) -> Self {
        DomainNoise {
            key: splitmix64(seed ^ splitmix64(domain)),
        }
    }

    /// Raw keyed draw.
    #[inline]
    pub fn draw_u64(&self, t_ns: Ns, salt: u64) -> u64 {
        splitmix64(self.key ^ splitmix64(t_ns.wrapping_add(salt.rotate_left(32))))
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&self, t_ns: Ns, salt: u64) -> f64 {
        // 53 mantissa bits, the standard u64→f64 uniform construction.
        (self.draw_u64(t_ns, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[-1, 1]`.
    #[inline]
    pub fn symmetric(&self, t_ns: Ns, salt: u64) -> f64 {
        2.0 * self.unit(t_ns, salt) - 1.0
    }

    /// Uniform integer draw in `lo..=hi`.
    #[inline]
    pub fn range_i64(&self, t_ns: Ns, salt: u64, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.draw_u64(t_ns, salt) % span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_the_key() {
        let a = DomainNoise::new(42, domain::RAPL);
        let b = DomainNoise::new(42, domain::RAPL);
        assert_eq!(a.draw_u64(1_000, 3), b.draw_u64(1_000, 3));
        assert_eq!(a.unit(7, 0), b.unit(7, 0));
    }

    #[test]
    fn seed_domain_time_and_salt_all_matter() {
        let n = DomainNoise::new(1, domain::PSTATE);
        assert_ne!(
            n.draw_u64(5, 0),
            DomainNoise::new(2, domain::PSTATE).draw_u64(5, 0)
        );
        assert_ne!(
            n.draw_u64(5, 0),
            DomainNoise::new(1, domain::RAPL).draw_u64(5, 0)
        );
        assert_ne!(n.draw_u64(5, 0), n.draw_u64(6, 0));
        assert_ne!(n.draw_u64(5, 0), n.draw_u64(5, 1));
    }

    #[test]
    fn unit_is_uniform_enough() {
        let n = DomainNoise::new(9, domain::METER);
        let mut sum = 0.0;
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for t in 0..10_000u64 {
            let u = n.unit(t * 50, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
            min = min.min(u);
            max = max.max(u);
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(min < 0.01 && max > 0.99);
    }

    #[test]
    fn range_covers_both_endpoints() {
        let n = DomainNoise::new(3, domain::PSTATE);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for t in 0..10_000u64 {
            let v = n.range_i64(t, 0, -25, 25);
            assert!((-25..=25).contains(&v));
            seen_lo |= v == -25;
            seen_hi |= v == 25;
        }
        assert!(seen_lo && seen_hi);
    }
}
