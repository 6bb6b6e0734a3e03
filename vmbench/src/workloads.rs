//! The three closed-loop workloads. Each boots a uVAX II (VAX port, one
//! simulated CPU), builds its fixture, and then runs steps that all do
//! the same mix of work, so state stops growing after warm-up and every
//! step costs the same simulated time as the step one round earlier.
//!
//! A step checks the contents it reads and returns `Err` with a
//! description on the first mismatch or VM error.

use std::collections::VecDeque;
use std::sync::Arc;

use mach_fs::{BlockDevice, FileId, SimFs};
use mach_hw::machine::{Machine, MachineModel};
use mach_vm::{BootOptions, FleetOptions, Inheritance, Kernel, Protection, Task, VmError};

use crate::tracer::{Layer, Tracer};

pub type StepResult = Result<(), String>;

pub const NAMES: [&str; 3] = ["fork_storm", "resident_refault", "paging_fleet"];

/// The booted system a workload drives.
pub struct Rig {
    pub machine: Arc<Machine>,
    pub kernel: Arc<Kernel>,
}

impl Rig {
    fn boot(opts: impl FnOnce(&Machine) -> BootOptions) -> Rig {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let kernel = Kernel::boot_with(&machine, opts(&machine));
        Rig { machine, kernel }
    }
}

pub trait Workload {
    fn rig(&self) -> &Rig;
    /// Steps after which the page schedule repeats; runs are whole rounds.
    fn round(&self) -> u64;
    /// Steps run as warm-up, part of set-up.
    fn warmup_steps(&self) -> u64;
    fn step(&mut self, tr: &mut Tracer) -> StepResult;
}

/// Boot and build the fixture of workload `name` (no warm-up yet).
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fork_storm" => Box::new(ForkStorm::new(seed)),
        "resident_refault" => Box::new(Refault::new(seed)),
        "paging_fleet" => Box::new(PagingFleet::new(seed)),
        _ => return None,
    })
}

/// SplitMix64: the seeded source of every page order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    fn permutation<const N: usize>(&mut self) -> [usize; N] {
        let mut p = [0; N];
        for (i, x) in p.iter_mut().enumerate() {
            *x = i;
        }
        self.shuffle(&mut p);
        p
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

fn vm(e: VmError) -> String {
    format!("vm error: {e:?}")
}

fn expect_eq(what: &str, got: u32, want: u32) -> StepResult {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: read {got:#x}, expected {want:#x}"))
    }
}

/// A file of `bytes` seeded bytes on a fresh filesystem of `machine`.
fn seeded_file(
    machine: &Arc<Machine>,
    rng: &mut Rng,
    bytes: usize,
) -> (Arc<SimFs>, FileId, Vec<u8>) {
    let bs = machine.disk().block_size;
    let dev = BlockDevice::new(machine, (2 * bytes as u64).div_ceil(bs) + 64);
    let fs = SimFs::format(&dev);
    let file = fs.create("data").expect("create on a fresh fs");
    let data = rng.bytes(bytes);
    fs.write_at(file, 0, &data)
        .expect("device sized for the file");
    (fs, file, data)
}

// ----------------------------------------------------------------------
// fork_storm
// ----------------------------------------------------------------------

/// Pages of the parent's region: the first half inherited `Shared`, the
/// second `Copy`.
const FORK_REGION_PAGES: u64 = 16;
const HALF: usize = FORK_REGION_PAGES as usize / 2;
const FORK_FILE_PAGES: usize = 8;
/// Children alive besides the lineage.
const LIVE_SET: usize = 4;
/// Every this-many-th child becomes the lineage.
const LINEAGE_EVERY: u64 = 4;
/// The COW page schedule repeats after this many steps.
const FORK_ROUND: u64 = 32;

/// Fork, COW and teardown; the pager and pageout do no work.
struct ForkStorm {
    rig: Rig,
    _fs: Arc<SimFs>,
    file: Vec<u8>,
    ps: u64,
    region: u64,
    file_addr: u64,
    lineage: Arc<Task>,
    live: VecDeque<Arc<Task>>,
    /// Word 0 of each `Copy` page, as the lineage sees it.
    lineage_vals: [u32; HALF],
    /// Word 0 of each `Shared` page, as every task sees it.
    shared_vals: [u32; HALF],
    copy_perm: [usize; HALF],
    shared_perm: [usize; HALF],
    file_perm: [usize; FORK_FILE_PAGES],
    salt: u32,
    next: u64,
}

impl ForkStorm {
    fn new(seed: u64) -> ForkStorm {
        let rig = Rig::boot(BootOptions::for_machine);
        let mut rng = Rng::new(seed);
        let ctx = rig.kernel.ctx();
        let ps = rig.kernel.page_size();
        let (fs, file_id, file) =
            seeded_file(&rig.machine, &mut rng, FORK_FILE_PAGES * ps as usize);
        let parent = rig.kernel.create_task();
        let region = parent
            .map()
            .allocate(ctx, None, FORK_REGION_PAGES * ps, true)
            .expect("allocate the fork region");
        parent
            .map()
            .inherit(ctx, region, HALF as u64 * ps, Inheritance::Shared)
            .expect("inherit the shared half");
        let file_addr = rig
            .kernel
            .map_file(&parent, &fs, file_id, None, Protection::READ)
            .expect("map the file");
        let mut lineage_vals = [0; HALF];
        let mut shared_vals = [0; HALF];
        parent.user(0, |u| {
            for p in 0..HALF {
                shared_vals[p] = rng.next_u64() as u32;
                lineage_vals[p] = rng.next_u64() as u32;
                u.write_u32(region + p as u64 * ps, shared_vals[p])
                    .expect("dirty the shared half");
                u.write_u32(region + (HALF + p) as u64 * ps, lineage_vals[p])
                    .expect("dirty the copy half");
            }
            u.touch_range(file_addr, FORK_FILE_PAGES as u64 * ps)
                .expect("read the file in");
        });
        ForkStorm {
            _fs: fs,
            file,
            ps,
            region,
            file_addr,
            lineage: parent,
            live: VecDeque::with_capacity(LIVE_SET + 1),
            lineage_vals,
            shared_vals,
            copy_perm: rng.permutation(),
            shared_perm: rng.permutation(),
            file_perm: rng.permutation(),
            salt: rng.next_u64() as u32,
            next: 0,
            rig,
        }
    }

    fn file_word(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.file[off..off + 4].try_into().expect("4 bytes"))
    }
}

impl Workload for ForkStorm {
    fn rig(&self) -> &Rig {
        &self.rig
    }

    fn round(&self) -> u64 {
        FORK_ROUND
    }

    fn warmup_steps(&self) -> u64 {
        4 * FORK_ROUND
    }

    fn step(&mut self, tr: &mut Tracer) -> StepResult {
        let i = self.next;
        self.next += 1;
        let ctx = self.rig.kernel.ctx();
        let ps = self.ps;
        let k = (i % FORK_ROUND) as usize;
        // Two consecutive COW pages per step, shifted by one every four
        // steps so successive lineages write different pages.
        let j = 2 * k + k / LINEAGE_EVERY as usize;
        let cow = [self.copy_perm[j % HALF], self.copy_perm[(j + 1) % HALF]];
        let shared = self.shared_perm[k % HALF];
        let files = [
            self.file_perm[(2 * k) % FORK_FILE_PAGES],
            self.file_perm[(2 * k + 1) % FORK_FILE_PAGES],
        ];
        let tag = ((i as u32).wrapping_mul(0x9E37_79B9) ^ self.salt) | 1;

        let child = tr.span(Layer::Fork, || self.lineage.fork());
        let zf = tr
            .span(Layer::Allocate, || {
                child.map().allocate(ctx, None, 2 * ps, true)
            })
            .map_err(vm)?;
        let (region, file_addr) = (self.region, self.file_addr);
        let lineage_vals = self.lineage_vals;
        let shared_want = self.shared_vals[shared];
        let file_want = files.map(|f| (f, self.file_word(f * ps as usize + 4 * k)));
        let checked = child.user(0, |u| -> StepResult {
            // Zero fill: fresh pages read zero, then hold the tag.
            for p in 0..2 {
                let va = zf + p * ps;
                let old = tr
                    .span(Layer::Access, || u.rmw_u32(va, |_| tag))
                    .map_err(vm)?;
                expect_eq("zero-fill page", old, 0)?;
                let back = tr.span(Layer::Access, || u.read_u32(va)).map_err(vm)?;
                expect_eq("zero-fill write", back, tag)?;
            }
            // COW: the child first sees the lineage's word, then its own.
            for &q in &cow {
                let va = region + (HALF + q) as u64 * ps;
                let mine = tag ^ q as u32;
                let old = tr
                    .span(Layer::Access, || u.rmw_u32(va, |_| mine))
                    .map_err(vm)?;
                expect_eq("inherited copy page", old, lineage_vals[q])?;
                let back = tr.span(Layer::Access, || u.read_u32(va)).map_err(vm)?;
                expect_eq("copy-on-write page", back, mine)?;
            }
            // Shared: one page every task of the storm writes.
            let va = region + shared as u64 * ps;
            let old = tr
                .span(Layer::Access, || u.rmw_u32(va, |v| v.wrapping_add(1)))
                .map_err(vm)?;
            expect_eq("shared page", old, shared_want)?;
            // File: the read-only mapping shows the file's bytes.
            for (f, want) in file_want {
                let va = file_addr + f as u64 * ps + 4 * k as u64;
                let got = tr.span(Layer::Access, || u.read_u32(va)).map_err(vm)?;
                expect_eq("file page", got, want)?;
            }
            Ok(())
        });
        let freed = tr.span(Layer::Deallocate, || {
            child.map().deallocate(ctx, zf, 2 * ps)
        });
        checked?;
        freed.map_err(vm)?;
        self.shared_vals[shared] = shared_want.wrapping_add(1);

        if i % LINEAGE_EVERY == LINEAGE_EVERY - 1 {
            for &q in &cow {
                self.lineage_vals[q] = tag ^ q as u32;
            }
            let old = std::mem::replace(&mut self.lineage, child);
            tr.span(Layer::Teardown, || drop(old));
        } else {
            self.live.push_back(child);
            if self.live.len() > LIVE_SET {
                let old = self.live.pop_front();
                tr.span(Layer::Teardown, || drop(old));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// resident_refault
// ----------------------------------------------------------------------

const REFAULT_FILE_PAGES: u64 = 64;

/// Map a cached file, fault every page back in from the resident table,
/// unmap. No COW, fork, pager or pageout work.
struct Refault {
    rig: Rig,
    fs: Arc<SimFs>,
    file_id: FileId,
    file: Vec<u8>,
    ps: u64,
    task: Arc<Task>,
    order: Vec<u64>,
    rng: Rng,
}

impl Refault {
    fn new(seed: u64) -> Refault {
        let rig = Rig::boot(BootOptions::for_machine);
        let mut rng = Rng::new(seed);
        let ps = rig.kernel.page_size();
        let bytes = (REFAULT_FILE_PAGES * ps) as usize;
        let (fs, file_id, file) = seeded_file(&rig.machine, &mut rng, bytes);
        let task = rig.kernel.create_task();
        // The cold read: every page comes in through the inode pager and
        // stays resident in the object cache after the unmap.
        let addr = rig
            .kernel
            .map_file(&task, &fs, file_id, None, Protection::READ)
            .expect("map the file");
        task.user(0, |u| u.touch_range(addr, bytes as u64))
            .expect("read the file in");
        task.map()
            .deallocate(rig.kernel.ctx(), addr, bytes as u64)
            .expect("unmap the file");
        Refault {
            rig,
            fs,
            file_id,
            file,
            ps,
            task,
            order: (0..REFAULT_FILE_PAGES).collect(),
            rng,
        }
    }
}

impl Workload for Refault {
    fn rig(&self) -> &Rig {
        &self.rig
    }

    fn round(&self) -> u64 {
        1
    }

    fn warmup_steps(&self) -> u64 {
        16
    }

    fn step(&mut self, tr: &mut Tracer) -> StepResult {
        let (kernel, ps) = (&self.rig.kernel, self.ps);
        let bytes = REFAULT_FILE_PAGES * ps;
        let addr = tr
            .span(Layer::MapFile, || {
                kernel.map_file(&self.task, &self.fs, self.file_id, None, Protection::READ)
            })
            .map_err(vm)?;
        self.rng.shuffle(&mut self.order);
        let (order, file) = (&self.order, &self.file);
        let checked = self.task.user(0, |u| -> StepResult {
            for &p in order {
                let got = tr
                    .span(Layer::Access, || u.read_bytes(addr + p * ps, ps as usize))
                    .map_err(vm)?;
                let at = (p * ps) as usize;
                if got[..] != file[at..at + ps as usize] {
                    return Err(format!("file page {p}: contents differ"));
                }
            }
            Ok(())
        });
        let freed = tr.span(Layer::Deallocate, || {
            self.task.map().deallocate(kernel.ctx(), addr, bytes)
        });
        checked?;
        freed.map_err(vm)
    }
}

// ----------------------------------------------------------------------
// paging_fleet
// ----------------------------------------------------------------------

const FLEET_PAGES: usize = 96;
const RECLAIM_BATCH: usize = FLEET_PAGES / 2;

/// Page the anon region out through one fleet pager service and back in.
struct PagingFleet {
    rig: Rig,
    ps: u64,
    region: u64,
    task: Arc<Task>,
    /// Word 0 of every page, as last written.
    vals: [u32; FLEET_PAGES],
    /// The pages of each parity, read in a fresh seeded order per step.
    halves: [Vec<u64>; 2],
    rng: Rng,
    next: u64,
}

impl PagingFleet {
    fn new(seed: u64) -> PagingFleet {
        let rig = Rig::boot(|m| BootOptions {
            pager_fleet: Some(FleetOptions {
                pagers: 1,
                ..FleetOptions::default()
            }),
            ..BootOptions::for_machine(m)
        });
        let mut rng = Rng::new(seed);
        let ps = rig.kernel.page_size();
        let task = rig.kernel.create_task();
        let region = task
            .map()
            .allocate(rig.kernel.ctx(), None, FLEET_PAGES as u64 * ps, true)
            .expect("allocate the paging region");
        let mut vals = [0; FLEET_PAGES];
        task.user(0, |u| {
            for (p, v) in vals.iter_mut().enumerate() {
                *v = rng.next_u64() as u32;
                u.write_u32(region + p as u64 * ps, *v)
                    .expect("dirty the paging region");
            }
        });
        let half = |parity: u64| {
            (0..FLEET_PAGES as u64)
                .filter(|p| p % 2 == parity)
                .collect()
        };
        PagingFleet {
            halves: [half(0), half(1)],
            rig,
            ps,
            region,
            task,
            vals,
            rng,
            next: 0,
        }
    }
}

impl Workload for PagingFleet {
    fn rig(&self) -> &Rig {
        &self.rig
    }

    fn round(&self) -> u64 {
        2
    }

    fn warmup_steps(&self) -> u64 {
        8
    }

    fn step(&mut self, tr: &mut Tracer) -> StepResult {
        let parity = (self.next % 2) as usize;
        self.next += 1;
        let kernel = &self.rig.kernel;
        // Page out what the previous step dirtied: acknowledged pageout
        // RPCs to the fleet service.
        for _ in 0..2 {
            tr.span(Layer::Reclaim, || kernel.reclaim(RECLAIM_BATCH));
        }
        // Fault the other half back in (pageins) and bump each counter.
        let order = &mut self.halves[parity];
        self.rng.shuffle(order);
        let (region, ps, vals) = (self.region, self.ps, &mut self.vals);
        self.task.user(0, |u| -> StepResult {
            for &p in order.iter() {
                let va = region + p * ps;
                let old = tr
                    .span(Layer::Access, || u.rmw_u32(va, |v| v.wrapping_add(1)))
                    .map_err(vm)?;
                let want = vals[p as usize];
                vals[p as usize] = old.wrapping_add(1);
                expect_eq("paged-in page", old, want)?;
            }
            Ok(())
        })
    }
}
