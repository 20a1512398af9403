//! An msr-safe-style access gate.
//!
//! Measurement tools on production systems do not get raw `/dev/cpu/*/msr`
//! access; they go through an allowlist (LLNL's msr-safe, or likwid's
//! accessDaemon) that confines reads and writes to the registers a tool
//! legitimately needs — exactly the register set this survey exercises.
//! The gate wraps a [`MsrBank`] and enforces a per-register read/write
//! policy, including *write masks* (e.g. only the EPB bits of
//! `IA32_ENERGY_PERF_BIAS` may change).

use std::collections::BTreeMap;

use crate::addresses as a;
use crate::device::{MsrBank, MsrError};

/// Permission for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permission {
    pub read: bool,
    /// Bits a write may modify (0 = read-only through the gate).
    pub write_mask: u64,
}

impl Permission {
    pub const READ_ONLY: Permission = Permission {
        read: true,
        write_mask: 0,
    };

    pub fn read_write(mask: u64) -> Permission {
        Permission {
            read: true,
            write_mask: mask,
        }
    }
}

/// Denial reasons, distinct from the hardware's own #GP conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// The register is not on the allowlist at all.
    NotAllowed(u32),
    /// Reads allowed, but the attempted write touches masked-off bits.
    WriteDenied(u32),
    /// The underlying hardware faulted.
    Hardware(MsrError),
}

/// The allowlist: the registers the survey's tools need, with the same
/// policy msr-safe ships for them.
pub fn survey_allowlist() -> BTreeMap<u32, Permission> {
    let mut m = BTreeMap::new();
    // Counters and status: read-only.
    for addr in [
        a::IA32_TIME_STAMP_COUNTER,
        a::IA32_APERF,
        a::IA32_MPERF,
        a::IA32_PERF_STATUS,
        a::IA32_FIXED_CTR0_INST_RETIRED,
        a::IA32_FIXED_CTR1_CPU_CLK_UNHALTED,
        a::IA32_FIXED_CTR2_REF_CYCLES,
        a::MSR_RAPL_POWER_UNIT,
        a::MSR_PKG_ENERGY_STATUS,
        a::MSR_DRAM_ENERGY_STATUS,
        a::MSR_PKG_POWER_INFO,
        a::MSR_U_PMON_UCLK_FIXED_CTR,
        a::MSR_CORE_C3_RESIDENCY,
        a::MSR_CORE_C6_RESIDENCY,
        a::MSR_PKG_C3_RESIDENCY,
        a::MSR_PKG_C6_RESIDENCY,
    ] {
        m.insert(addr, Permission::READ_ONLY);
    }
    // Controls with confined write masks.
    m.insert(a::IA32_PERF_CTL, Permission::read_write(0xFF00)); // ratio bits
    m.insert(a::IA32_ENERGY_PERF_BIAS, Permission::read_write(0xF));
    m.insert(
        a::MSR_U_PMON_UCLK_FIXED_CTL,
        Permission::read_write(0x40_0000),
    );
    m
}

/// The gate itself.
pub struct MsrGate<'a> {
    bank: &'a mut MsrBank,
    allowlist: BTreeMap<u32, Permission>,
}

impl<'a> MsrGate<'a> {
    pub fn new(bank: &'a mut MsrBank, allowlist: BTreeMap<u32, Permission>) -> Self {
        MsrGate { bank, allowlist }
    }

    /// A gate with the survey's standard allowlist.
    pub fn survey(bank: &'a mut MsrBank) -> Self {
        Self::new(bank, survey_allowlist())
    }

    pub fn read(&self, thread: usize, addr: u32) -> Result<u64, GateError> {
        match self.allowlist.get(&addr) {
            Some(p) if p.read => self.bank.read(thread, addr).map_err(GateError::Hardware),
            _ => Err(GateError::NotAllowed(addr)),
        }
    }

    pub fn write(&mut self, thread: usize, addr: u32, value: u64) -> Result<(), GateError> {
        let p = self
            .allowlist
            .get(&addr)
            .copied()
            .ok_or(GateError::NotAllowed(addr))?;
        if p.write_mask == 0 {
            return Err(GateError::WriteDenied(addr));
        }
        let current = self.bank.read(thread, addr).map_err(GateError::Hardware)?;
        if (value ^ current) & !p.write_mask != 0 {
            return Err(GateError::WriteDenied(addr));
        }
        self.bank
            .write(
                thread,
                addr,
                (current & !p.write_mask) | (value & p.write_mask),
            )
            .map_err(GateError::Hardware)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::CpuGeneration;

    fn bank() -> MsrBank {
        MsrBank::new(CpuGeneration::HaswellEp, 24)
    }

    #[test]
    fn allowlist_iterates_in_ascending_address_order() {
        // Determinism regression: the allowlist is a BTreeMap, so any code
        // that iterates it (snapshots, audits) sees the address order, not
        // a per-process hash order.
        let keys: Vec<u32> = survey_allowlist().keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(keys.len() >= 16, "allowlist unexpectedly small: {keys:?}");
    }

    /// Every `pub const NAME: u32 = <address>;` line of addresses.rs, read
    /// from its source so no constant can be left out of the checks below.
    fn named_addresses() -> Vec<(&'static str, u32)> {
        include_str!("addresses.rs")
            .lines()
            .filter_map(|line| {
                let (name, rest) = line.strip_prefix("pub const ")?.split_once(": u32 = ")?;
                let value = rest.split_once(';')?.0.replace('_', "");
                let addr = match value.strip_prefix("0x") {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                Some((
                    name,
                    addr.unwrap_or_else(|e| panic!("{name} = {value}: {e}")),
                ))
            })
            .collect()
    }

    #[test]
    fn addresses_are_unique_and_name_every_allowlist_entry() {
        let named = named_addresses();
        assert!(
            named.len() >= 20,
            "address table unexpectedly small: {named:?}"
        );
        // Two names for one MSR number is a copy-paste bug.
        let mut by_addr: BTreeMap<u32, &str> = BTreeMap::new();
        for &(name, addr) in &named {
            if let Some(first) = by_addr.insert(addr, name) {
                panic!("`{name}` duplicates MSR address {addr:#x} already named `{first}`");
            }
        }
        // The gate admits only registers the address table names.
        for addr in survey_allowlist().keys() {
            assert!(
                by_addr.contains_key(addr),
                "allowlist entry {addr:#x} is not a named constant in addresses.rs"
            );
        }
    }

    #[test]
    fn counters_read_but_never_write() {
        let mut b = bank();
        let mut gate = MsrGate::survey(&mut b);
        assert!(gate.read(0, a::IA32_APERF).is_ok());
        assert_eq!(
            gate.write(0, a::IA32_APERF, 1),
            Err(GateError::WriteDenied(a::IA32_APERF))
        );
        assert_eq!(
            gate.write(0, a::MSR_PKG_ENERGY_STATUS, 1),
            Err(GateError::WriteDenied(a::MSR_PKG_ENERGY_STATUS))
        );
    }

    #[test]
    fn unlisted_registers_are_invisible() {
        let mut b = bank();
        let gate = MsrGate::survey(&mut b);
        // PKG_POWER_LIMIT is root-only on real deployments — not listed.
        assert_eq!(
            gate.read(0, a::MSR_PKG_POWER_LIMIT),
            Err(GateError::NotAllowed(a::MSR_PKG_POWER_LIMIT))
        );
    }

    #[test]
    fn perf_ctl_writes_are_confined_to_the_ratio_field() {
        let mut b = bank();
        let mut gate = MsrGate::survey(&mut b);
        // Ratio bits pass.
        assert!(gate.write(0, a::IA32_PERF_CTL, 0x0D00).is_ok());
        assert_eq!(gate.read(0, a::IA32_PERF_CTL).unwrap(), 0x0D00);
        // A write touching reserved bits is rejected whole.
        assert_eq!(
            gate.write(0, a::IA32_PERF_CTL, 0x1_0000_0D00),
            Err(GateError::WriteDenied(a::IA32_PERF_CTL))
        );
    }

    #[test]
    fn epb_writes_touch_only_the_4_bit_field() {
        let mut b = bank();
        let mut gate = MsrGate::survey(&mut b);
        assert!(gate.write(0, a::IA32_ENERGY_PERF_BIAS, 0x6).is_ok());
        assert_eq!(gate.read(0, a::IA32_ENERGY_PERF_BIAS).unwrap(), 6);
        assert_eq!(
            gate.write(0, a::IA32_ENERGY_PERF_BIAS, 0x16),
            Err(GateError::WriteDenied(a::IA32_ENERGY_PERF_BIAS))
        );
    }

    #[test]
    fn hardware_faults_pass_through() {
        let mut b = MsrBank::new(CpuGeneration::WestmereEp, 12);
        let gate = MsrGate::survey(&mut b);
        // RAPL is allowlisted but Westmere hardware doesn't implement it.
        assert_eq!(
            gate.read(0, a::MSR_PKG_ENERGY_STATUS),
            Err(GateError::Hardware(MsrError::Unsupported(
                a::MSR_PKG_ENERGY_STATUS
            )))
        );
    }
}
