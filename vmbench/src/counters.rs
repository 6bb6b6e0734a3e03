//! Counter snapshots: what the program already exposes, read before and
//! after a stretch of steps.

use mach_vm::{ProfileReport, SpanKind, VmStats};

use crate::alloc;
use crate::workloads::Rig;

/// Every counter a step can move, read at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub system_cycles: u64,
    pub wait_us: u64,
    pub vm: VmStats,
    pub pmap_enters: u64,
    pub pmap_removes: u64,
    pub pmap_protects: u64,
    pub tlb_misses: u64,
}

impl Counters {
    pub fn read(rig: &Rig) -> Counters {
        let (allocs, alloc_bytes) = alloc::totals();
        let cpu = rig.machine.cpu(0);
        let pmap = rig.kernel.machdep().stats();
        Counters {
            allocs,
            alloc_bytes,
            system_cycles: cpu.clock.system_cycles(),
            wait_us: cpu.clock.wait_us(),
            vm: rig.kernel.statistics(),
            pmap_enters: pmap.enters,
            pmap_removes: pmap.removes,
            pmap_protects: pmap.protects,
            tlb_misses: cpu.tlb_stats().misses,
        }
    }

    /// Events since `base` (queue lengths are state and pass through).
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - base.allocs,
            alloc_bytes: self.alloc_bytes - base.alloc_bytes,
            system_cycles: self.system_cycles - base.system_cycles,
            wait_us: self.wait_us - base.wait_us,
            vm: self.vm.delta(&base.vm),
            pmap_enters: self.pmap_enters - base.pmap_enters,
            pmap_removes: self.pmap_removes - base.pmap_removes,
            pmap_protects: self.pmap_protects - base.pmap_protects,
            tlb_misses: self.tlb_misses - base.tlb_misses,
        }
    }

    /// Equal in every count, except that allocations and allocated
    /// bytes may differ by `slack_ppm` parts per million.
    pub fn matches(&self, other: &Counters, slack_ppm: u64) -> bool {
        let near = |a: u64, b: u64| a.abs_diff(b) * 1_000_000 <= a.max(b) * slack_ppm;
        near(self.allocs, other.allocs)
            && near(self.alloc_bytes, other.alloc_bytes)
            && Counters {
                allocs: 0,
                alloc_bytes: 0,
                ..*self
            } == Counters {
                allocs: 0,
                alloc_bytes: 0,
                ..*other
            }
    }

    /// Accumulate the event counters of `d`.
    pub fn add(&mut self, d: &Counters) {
        let (v, w) = (&mut self.vm, &d.vm);
        self.allocs += d.allocs;
        self.alloc_bytes += d.alloc_bytes;
        self.system_cycles += d.system_cycles;
        self.wait_us += d.wait_us;
        v.faults += w.faults;
        v.zero_fill_count += w.zero_fill_count;
        v.cow_faults += w.cow_faults;
        v.resident_hits += w.resident_hits;
        v.pageins += w.pageins;
        v.pageouts += w.pageouts;
        v.reactivations += w.reactivations;
        v.collapses += w.collapses;
        v.bypasses += w.bypasses;
        v.object_cache_hits += w.object_cache_hits;
        v.object_cache_misses += w.object_cache_misses;
        v.hint_hits += w.hint_hits;
        v.hint_misses += w.hint_misses;
        v.pager_throttles += w.pager_throttles;
        self.pmap_enters += d.pmap_enters;
        self.pmap_removes += d.pmap_removes;
        self.pmap_protects += d.pmap_protects;
        self.tlb_misses += d.tlb_misses;
    }
}

/// Profiler totals (simulated cycles) accumulated over captures: the
/// whole fault, the shadow walk's own cycles, pmap enter and pager wait.
#[derive(Debug, Default)]
pub struct Profile {
    pub faults: u64,
    pub fault_cycles: u64,
    pub shadow_walk_cycles: u64,
    pub pmap_enter_cycles: u64,
    pub pager_wait_cycles: u64,
}

impl Profile {
    pub fn add(&mut self, r: &ProfileReport) {
        let fault = r.leaf_totals(SpanKind::Fault);
        self.faults += fault.count;
        self.fault_cycles += fault.total_cycles;
        self.shadow_walk_cycles += r.leaf_totals(SpanKind::ShadowWalk).self_cycles;
        self.pmap_enter_cycles += r.leaf_totals(SpanKind::PmapEnter).total_cycles;
        self.pager_wait_cycles += r.leaf_totals(SpanKind::PagerWait).total_cycles;
    }
}
