//! The per-socket MSR bank: scoped registers, read/write semantics, and
//! counter accumulation with sub-count residue.

use std::collections::BTreeMap;

use hsw_hwspec::{CpuGeneration, RaplMode};

use crate::addresses as a;

/// Error raised by invalid MSR accesses — the software-visible equivalent of
/// a #GP fault from `rdmsr`/`wrmsr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrError {
    /// The address is not implemented on this generation (e.g. PP0 energy
    /// status on Haswell-EP, RAPL on Westmere-EP).
    Unsupported(u32),
    /// The register exists but is read-only.
    ReadOnly(u32),
    /// Thread index out of range for this socket.
    NoSuchThread(usize),
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::Unsupported(addr) => write!(f, "#GP: MSR {addr:#x} not implemented"),
            MsrError::ReadOnly(addr) => write!(f, "#GP: MSR {addr:#x} is read-only"),
            MsrError::NoSuchThread(t) => write!(f, "no hardware thread {t}"),
        }
    }
}

impl std::error::Error for MsrError {}

/// Whether a register is replicated per hardware thread or shared by the
/// package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrScope {
    Thread,
    Package,
}

/// Scope of each implemented register.
pub fn scope_of(addr: u32) -> MsrScope {
    match addr {
        a::IA32_TIME_STAMP_COUNTER
        | a::IA32_APERF
        | a::IA32_MPERF
        | a::IA32_PERF_STATUS
        | a::IA32_PERF_CTL
        | a::IA32_CLOCK_MODULATION
        | a::IA32_THERM_STATUS
        | a::IA32_ENERGY_PERF_BIAS
        | a::IA32_FIXED_CTR0_INST_RETIRED
        | a::IA32_FIXED_CTR1_CPU_CLK_UNHALTED
        | a::IA32_FIXED_CTR2_REF_CYCLES
        | a::MSR_CORE_C3_RESIDENCY
        | a::MSR_CORE_C6_RESIDENCY => MsrScope::Thread,
        _ => MsrScope::Package,
    }
}

/// Whether software may write the register.
fn is_writable(addr: u32) -> bool {
    matches!(
        addr,
        a::IA32_PERF_CTL
            | a::IA32_CLOCK_MODULATION
            | a::IA32_ENERGY_PERF_BIAS
            | a::IA32_MISC_ENABLE
            | a::MSR_PKG_POWER_LIMIT
            | a::MSR_DRAM_POWER_LIMIT
            | a::MSR_UNCORE_RATIO_LIMIT
            | a::MSR_U_PMON_UCLK_FIXED_CTL
    )
}

/// The full implemented register list for a generation.
fn implemented(addr: u32, generation: CpuGeneration) -> bool {
    let common = matches!(
        addr,
        a::IA32_TIME_STAMP_COUNTER
            | a::IA32_APERF
            | a::IA32_MPERF
            | a::IA32_PERF_STATUS
            | a::IA32_PERF_CTL
            | a::IA32_CLOCK_MODULATION
            | a::IA32_THERM_STATUS
            | a::IA32_MISC_ENABLE
            | a::IA32_ENERGY_PERF_BIAS
            | a::IA32_FIXED_CTR0_INST_RETIRED
            | a::IA32_FIXED_CTR1_CPU_CLK_UNHALTED
            | a::IA32_FIXED_CTR2_REF_CYCLES
            | a::MSR_PKG_C2_RESIDENCY
            | a::MSR_PKG_C3_RESIDENCY
            | a::MSR_PKG_C6_RESIDENCY
            | a::MSR_CORE_C3_RESIDENCY
            | a::MSR_CORE_C6_RESIDENCY
            | a::MSR_U_PMON_UCLK_FIXED_CTL
            | a::MSR_U_PMON_UCLK_FIXED_CTR
    );
    if common {
        return true;
    }
    let pkg_rapl = matches!(
        addr,
        a::MSR_RAPL_POWER_UNIT
            | a::MSR_PKG_POWER_LIMIT
            | a::MSR_PKG_ENERGY_STATUS
            | a::MSR_PKG_PERF_STATUS
            | a::MSR_PKG_POWER_INFO
    );
    let dram_rapl = matches!(
        addr,
        a::MSR_DRAM_POWER_LIMIT | a::MSR_DRAM_ENERGY_STATUS | a::MSR_DRAM_PERF_STATUS
    );
    let policy = &generation.policy().rapl;
    match policy.mode {
        RaplMode::Unavailable => false,
        RaplMode::Modeled | RaplMode::Measured => {
            if pkg_rapl {
                return true;
            }
            if dram_rapl {
                return policy.has_dram_domain;
            }
            // PP0 exists on Sandy/Ivy Bridge-EP but not Haswell-EP
            // (paper Section IV) or Skylake-SP.
            if addr == a::MSR_PP0_ENERGY_STATUS {
                return policy.has_pp0_domain;
            }
            // The uncore ratio-limit MSR only exists with independent UFS.
            if addr == a::MSR_UNCORE_RATIO_LIMIT {
                return policy.has_uncore_ratio_limit_msr;
            }
            false
        }
    }
}

/// The MSR bank of one socket: package-scoped registers plus one register
/// set per hardware thread. Counter state is kept with fractional residue so
/// sub-count increments (e.g. 0.3 cycles worth of a µs tick) accumulate
/// exactly. A clone is a snapshot: it carries the registers, the residue
/// and the geometry they were captured under.
#[derive(Debug, Clone, PartialEq)]
pub struct MsrBank {
    generation: CpuGeneration,
    threads: usize,
    package: BTreeMap<u32, u64>,
    per_thread: Vec<BTreeMap<u32, u64>>,
    residue: BTreeMap<(usize, u32), f64>,
}

/// Key used in the residue map for package-scoped counters.
const PKG_KEY: usize = usize::MAX;

impl MsrBank {
    pub fn new(generation: CpuGeneration, threads: usize) -> Self {
        let mut bank = MsrBank {
            generation,
            threads,
            package: BTreeMap::new(),
            per_thread: vec![BTreeMap::new(); threads],
            residue: BTreeMap::new(),
        };
        // Architectural reset values.
        if implemented(a::MSR_RAPL_POWER_UNIT, generation) {
            bank.package.insert(
                a::MSR_RAPL_POWER_UNIT,
                crate::fields::encode_rapl_power_unit(3, 14, 10),
            );
        }
        bank
    }

    pub fn generation(&self) -> CpuGeneration {
        self.generation
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `rdmsr` from the given hardware thread.
    pub fn read(&self, thread: usize, addr: u32) -> Result<u64, MsrError> {
        if thread >= self.threads {
            return Err(MsrError::NoSuchThread(thread));
        }
        if !implemented(addr, self.generation) {
            return Err(MsrError::Unsupported(addr));
        }
        let v = match scope_of(addr) {
            MsrScope::Thread => self.per_thread[thread].get(&addr),
            MsrScope::Package => self.package.get(&addr),
        };
        Ok(v.copied().unwrap_or(0))
    }

    /// `wrmsr` from the given hardware thread.
    pub fn write(&mut self, thread: usize, addr: u32, value: u64) -> Result<(), MsrError> {
        if thread >= self.threads {
            return Err(MsrError::NoSuchThread(thread));
        }
        if !implemented(addr, self.generation) {
            return Err(MsrError::Unsupported(addr));
        }
        if !is_writable(addr) {
            return Err(MsrError::ReadOnly(addr));
        }
        self.store(thread, addr, value);
        Ok(())
    }

    /// Hardware-internal store (the PCU and simulator use this to update
    /// status registers and counters; not subject to the writability check).
    pub fn store(&mut self, thread: usize, addr: u32, value: u64) {
        match scope_of(addr) {
            MsrScope::Thread => {
                self.per_thread[thread].insert(addr, value);
            }
            MsrScope::Package => {
                self.package.insert(addr, value);
            }
        }
    }

    /// Hardware-internal package-scope store.
    pub fn store_package(&mut self, addr: u32, value: u64) {
        debug_assert_eq!(scope_of(addr), MsrScope::Package);
        self.package.insert(addr, value);
    }

    /// Accumulate a (possibly fractional) increment onto a monotone counter
    /// register. Fractions are carried as residue; the stored register value
    /// is always the integral part.
    pub fn accumulate(&mut self, thread: usize, addr: u32, delta: f64) {
        debug_assert!(delta >= 0.0, "counters are monotone");
        let key = match scope_of(addr) {
            MsrScope::Thread => (thread, addr),
            MsrScope::Package => (PKG_KEY, addr),
        };
        let r = self.residue.entry(key).or_insert(0.0);
        *r += delta;
        let whole = r.floor();
        if whole > 0.0 {
            *r -= whole;
            let map = match scope_of(addr) {
                MsrScope::Thread => &mut self.per_thread[thread],
                MsrScope::Package => &mut self.package,
            };
            let v = map.entry(addr).or_insert(0);
            *v = v.wrapping_add(whole as u64);
        }
    }

    /// Read a register without a thread context (package scope only).
    pub fn read_package(&self, addr: u32) -> Result<u64, MsrError> {
        if !implemented(addr, self.generation) {
            return Err(MsrError::Unsupported(addr));
        }
        debug_assert_eq!(scope_of(addr), MsrScope::Package);
        Ok(self.package.get(&addr).copied().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addresses::*;
    use proptest::prelude::*;

    fn hsw_bank() -> MsrBank {
        MsrBank::new(CpuGeneration::HaswellEp, 24)
    }

    #[test]
    fn bank_maps_iterate_in_ascending_address_order() {
        // Determinism regression: the bank's maps are BTreeMaps, so
        // iteration order is the address order no matter the store order.
        let mut b = hsw_bank();
        for addr in [
            MSR_PKG_ENERGY_STATUS,
            MSR_PKG_POWER_LIMIT,
            MSR_DRAM_ENERGY_STATUS,
        ] {
            b.store_package(addr, 1);
        }
        let pkg: Vec<u32> = b.package.keys().copied().collect();
        let mut sorted = pkg.clone();
        sorted.sort_unstable();
        assert_eq!(pkg, sorted);

        for addr in [MSR_CORE_C6_RESIDENCY, IA32_APERF, IA32_MPERF] {
            b.store(0, addr, 1);
        }
        let thr: Vec<u32> = b.per_thread[0].keys().copied().collect();
        let mut sorted = thr.clone();
        sorted.sort_unstable();
        assert_eq!(thr, sorted);
    }

    #[test]
    fn pp0_raises_gp_on_haswell_ep() {
        // Paper Section IV: "The power domain for core consumption (PP0) is
        // not supported on Haswell-EP."
        let bank = hsw_bank();
        assert_eq!(
            bank.read(0, MSR_PP0_ENERGY_STATUS),
            Err(MsrError::Unsupported(MSR_PP0_ENERGY_STATUS))
        );
    }

    #[test]
    fn pp0_exists_on_sandy_bridge() {
        let bank = MsrBank::new(CpuGeneration::SandyBridgeEp, 16);
        assert!(bank.read(0, MSR_PP0_ENERGY_STATUS).is_ok());
    }

    #[test]
    fn westmere_has_no_rapl_at_all() {
        let bank = MsrBank::new(CpuGeneration::WestmereEp, 12);
        for addr in [
            MSR_RAPL_POWER_UNIT,
            MSR_PKG_ENERGY_STATUS,
            MSR_DRAM_ENERGY_STATUS,
        ] {
            assert_eq!(bank.read(0, addr), Err(MsrError::Unsupported(addr)));
        }
    }

    #[test]
    fn energy_status_is_read_only() {
        let mut bank = hsw_bank();
        assert_eq!(
            bank.write(0, MSR_PKG_ENERGY_STATUS, 42),
            Err(MsrError::ReadOnly(MSR_PKG_ENERGY_STATUS))
        );
    }

    #[test]
    fn perf_ctl_is_per_thread() {
        let mut bank = hsw_bank();
        bank.write(3, IA32_PERF_CTL, 0x1900).unwrap();
        assert_eq!(bank.read(3, IA32_PERF_CTL).unwrap(), 0x1900);
        assert_eq!(bank.read(4, IA32_PERF_CTL).unwrap(), 0);
    }

    #[test]
    fn rapl_block_is_package_scoped() {
        let mut bank = hsw_bank();
        bank.accumulate(0, MSR_PKG_ENERGY_STATUS, 100.0);
        // Visible from every thread.
        assert_eq!(bank.read(0, MSR_PKG_ENERGY_STATUS).unwrap(), 100);
        assert_eq!(bank.read(23, MSR_PKG_ENERGY_STATUS).unwrap(), 100);
    }

    #[test]
    fn rapl_power_unit_has_haswell_reset_value() {
        let bank = hsw_bank();
        let v = bank.read(0, MSR_RAPL_POWER_UNIT).unwrap();
        assert_eq!(crate::fields::decode_energy_status_unit(v), 14);
    }

    #[test]
    fn uncore_ratio_limit_needs_independent_ufs() {
        let mut hsw = hsw_bank();
        assert!(hsw.write(0, MSR_UNCORE_RATIO_LIMIT, 0x0C1E).is_ok());
        let mut snb = MsrBank::new(CpuGeneration::SandyBridgeEp, 16);
        assert_eq!(
            snb.write(0, MSR_UNCORE_RATIO_LIMIT, 0x0C1E),
            Err(MsrError::Unsupported(MSR_UNCORE_RATIO_LIMIT))
        );
    }

    #[test]
    fn skylake_msr_map_follows_its_rapl_policy() {
        // 1905.12468: UNCORE_RATIO_LIMIT controls the mesh UFS; PP0 stays
        // absent on the server parts.
        let mut skx = MsrBank::new(CpuGeneration::SkylakeSp, 52);
        assert!(skx.write(0, MSR_UNCORE_RATIO_LIMIT, 0x0C18).is_ok());
        assert_eq!(
            skx.read(0, MSR_PP0_ENERGY_STATUS),
            Err(MsrError::Unsupported(MSR_PP0_ENERGY_STATUS))
        );
        assert!(skx.read(0, MSR_DRAM_ENERGY_STATUS).is_ok());
    }

    #[test]
    fn out_of_range_thread_is_rejected() {
        let bank = hsw_bank();
        assert_eq!(bank.read(24, IA32_APERF), Err(MsrError::NoSuchThread(24)));
    }

    #[test]
    fn snapshot_round_trips_registers_and_residue() {
        let mut bank = hsw_bank();
        bank.write(3, IA32_PERF_CTL, 0x1900).unwrap();
        bank.accumulate(5, IA32_APERF, 2.75); // leaves 0.75 residue
        bank.accumulate(0, MSR_PKG_ENERGY_STATUS, 100.5);

        let mut fresh = bank.clone();
        // Same visible state...
        assert_eq!(fresh.read(3, IA32_PERF_CTL).unwrap(), 0x1900);
        assert_eq!(fresh.read(5, IA32_APERF).unwrap(), 2);
        // ...and the same sub-count residue: one more 0.25 tips the counter.
        fresh.accumulate(5, IA32_APERF, 0.25);
        bank.accumulate(5, IA32_APERF, 0.25);
        assert_eq!(fresh.read(5, IA32_APERF).unwrap(), 3);
        assert_eq!(fresh, bank);
    }

    #[test]
    fn fractional_accumulation_preserves_total() {
        let mut bank = hsw_bank();
        // 0.25 counts per step for 12 steps = 3 counts (exactly representable).
        for _ in 0..12 {
            bank.accumulate(5, IA32_APERF, 0.25);
        }
        let v = bank.read(5, IA32_APERF).unwrap();
        assert_eq!(v, 3, "residue must carry fractions, got {v}");
    }

    proptest! {
        #[test]
        fn prop_accumulate_never_loses_more_than_one_count(
            deltas in proptest::collection::vec(0.0f64..10.0, 1..100)
        ) {
            let mut bank = hsw_bank();
            let mut total = 0.0;
            for d in &deltas {
                bank.accumulate(0, IA32_MPERF, *d);
                total += *d;
            }
            let v = bank.read(0, IA32_MPERF).unwrap() as f64;
            prop_assert!(v <= total + 1e-9);
            prop_assert!(v >= total - 1.0);
        }

        #[test]
        fn prop_thread_scope_isolation(t1 in 0usize..24, t2 in 0usize..24, v in any::<u64>()) {
            prop_assume!(t1 != t2);
            let mut bank = hsw_bank();
            bank.store(t1, IA32_FIXED_CTR0_INST_RETIRED, v);
            prop_assert_eq!(bank.read(t2, IA32_FIXED_CTR0_INST_RETIRED).unwrap(), 0);
            prop_assert_eq!(bank.read(t1, IA32_FIXED_CTR0_INST_RETIRED).unwrap(), v);
        }
    }
}
