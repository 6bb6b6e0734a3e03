//! The repository's benchmark: three closed-loop workloads on the uVAX II
//! model, each reported on the host clock (how fast this code runs) and
//! on the simulated clock (the paper's quantity). See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path vmbench/Cargo.toml -- \
//!     --workload fork_storm --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it holds diagnostics. The process exits 1 if any content,
//! determinism, steady-state or thread-count check failed.

mod affinity;
mod alloc;
mod counters;
mod stats;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mach_vm::LockSite;

use counters::{Counters, Profile};
use tracer::{Layer, Tracer};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A run is this many segments; each boots and sets up afresh, so
/// `setup_s` is the median of this many set-ups spread over the run.
const SEGMENTS: u64 = 8;
/// Host threads a workload may use: its own plus one pager service.
const MAX_THREADS: u64 = 2;
/// Length of a measurement window. The host calibration loop runs
/// between windows, and traced runs alternate untraced and traced ones.
const WINDOW: Duration = Duration::from_millis(250);
/// Host metrics come from this share of windows, the ones with the
/// lowest median step time (see README.md, "Host speed states").
const KEEP_WINDOWS: f64 = 0.1;
/// Two probes of one seed may differ by this many allocations per
/// million: the program's hash maps are seeded per instance, so when a
/// table grows varies slightly from one set-up to the next.
const ALLOC_SLACK_PPM: u64 = 1_000;
/// The calibration loop walks this many bytes with a cache-line stride.
const CALIBRATION_BYTES: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 35;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be from 1 to 3600".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vmbench: {e}");
            return ExitCode::from(2);
        }
    };
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One window of consecutive steps, all untraced or all traced.
struct Window {
    traced: bool,
    /// Range into [`Run::host_ns`].
    first: usize,
    end: usize,
    ns: u64,
}

/// Everything measured over a run's segments.
#[derive(Default)]
struct Run {
    problems: Vec<String>,
    /// The CPUs the process may use; windows are pinned to them in turn.
    cpus: Vec<usize>,
    setup_s: Vec<f64>,
    /// Each set-up's probe, and its step count.
    probes: Vec<Counters>,
    probe_steps: u64,
    /// Host nanoseconds of every measured step, in order.
    host_ns: Vec<u32>,
    windows: Vec<Window>,
    sim_elapsed_cycles: u64,
    sim_system_cycles: u64,
    /// The simulated CPU's clock rate.
    mhz: u64,
    failed: u64,
    threads: u64,
    calibration_ns: Vec<u64>,
    /// Per-layer data, gathered in traced windows only.
    layer: Counters,
    profile: Profile,
    lock_acquisitions: u64,
    lock_contended: u64,
    fleet_depth_hwm: u64,
}

/// The tracked lock sites of the resident page table.
const RESIDENT_SITES: [LockSite; 4] = [
    LockSite::PageQueueShard,
    LockSite::PageHashShard,
    LockSite::FreeLocal,
    LockSite::FreeReserve,
];

impl Run {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }

    /// Set up, probe, then measure windows for `budget`.
    fn segment(&mut self, args: &Args, tr: &mut Tracer, cal: &mut [u8], budget: Duration) {
        let t0 = Instant::now();
        let mut w = workloads::setup(&args.workload, args.seed).expect("workload name was checked");
        self.mhz = w.rig().machine.model().mhz;
        for _ in 0..w.warmup_steps() {
            if let Err(e) = w.step(tr) {
                self.problem(format!("warm-up step failed: {e}"));
            }
        }
        self.setup_s.push(t0.elapsed().as_secs_f64());

        // The probe: a fixed number of steps whose counts must repeat
        // exactly in every segment, since all use the same seed.
        self.probe_steps = w.warmup_steps();
        let base = Counters::read(w.rig());
        for _ in 0..self.probe_steps {
            if let Err(e) = w.step(tr) {
                self.problem(format!("probe step failed: {e}"));
            }
        }
        let probe = Counters::read(w.rig()).since(&base);
        if let Some(first) = self.probes.first() {
            if !probe.matches(first, ALLOC_SLACK_PPM) {
                self.problem(format!(
                    "segment {} probe differs from segment 0 (same seed):\n  {probe:?}\n  {first:?}",
                    self.probes.len()
                ));
            }
        }
        self.probes.push(probe);
        let threads = stats::proc_status("Threads").unwrap_or(0);
        self.threads = self.threads.max(threads);
        if threads > MAX_THREADS {
            self.problem(format!(
                "{threads} host threads, at most {MAX_THREADS} allowed"
            ));
        }

        // Simulated cycles of every round, to check the steady state.
        let mut round_cycles: Vec<u64> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget {
            let traced = args.trace && self.windows.len() % 2 == 1;
            // Pairs of windows take turns on the allowed CPUs, so a run
            // samples every CPU's host state (see README.md).
            let cpu = self.cpus[self.windows.len() / 2 % self.cpus.len()];
            if let Err(e) = affinity::pin_process(cpu) {
                self.problem(format!("pinning to CPU {cpu}: {e}"));
            }
            if traced {
                let kernel = &w.rig().kernel;
                kernel.enable_profiling();
                kernel.enable_lock_stats();
                tr.set_on(true);
            }
            let base = Counters::read(w.rig());
            let first = self.host_ns.len();
            let t0 = Instant::now();
            self.run_until(w.as_mut(), tr, t0 + WINDOW, &mut round_cycles);
            let ns = t0.elapsed().as_nanos() as u64;
            if traced {
                let kernel = &w.rig().kernel;
                tr.set_on(false);
                kernel.disable_lock_stats();
                kernel.disable_profiling();
                self.layer.add(&Counters::read(w.rig()).since(&base));
                self.profile.add(&kernel.profile_report());
            }
            self.windows.push(Window {
                traced,
                first,
                end: self.host_ns.len(),
                ns,
            });
            self.calibration_ns.push(calibrate(cal));
        }

        // Steady state: the first and the last tenth of the segment's
        // rounds must take the same simulated time.
        let rounds = round_cycles.len();
        let tenth = (rounds / 10).max(1);
        if rounds < 2 {
            self.problem(format!(
                "only {rounds} rounds in a segment; cannot check steady state"
            ));
        } else {
            let head: u64 = round_cycles[..tenth].iter().sum();
            let tail: u64 = round_cycles[rounds - tenth..].iter().sum();
            if head != tail {
                self.problem(format!(
                    "not in a steady state: first tenth {head} != last tenth {tail} simulated cycles"
                ));
            }
        }

        if args.trace {
            let kernel = &w.rig().kernel;
            for r in kernel.lock_report() {
                if RESIDENT_SITES.contains(&r.site) {
                    self.lock_acquisitions += r.acquisitions;
                    self.lock_contended += r.contended;
                }
            }
            if let Some(f) = kernel.fleet() {
                for i in 0..f.pagers() {
                    self.fleet_depth_hwm = self.fleet_depth_hwm.max(f.depth_hwm(i));
                }
            }
        }
    }

    /// Run whole rounds until `until`, at least one.
    fn run_until(
        &mut self,
        w: &mut dyn Workload,
        tr: &mut Tracer,
        until: Instant,
        rounds: &mut Vec<u64>,
    ) {
        let mhz = self.mhz;
        loop {
            let clock = &w.rig().machine.cpu(0).clock;
            let (sys0, el0) = (clock.system_cycles(), clock.elapsed_cycles(mhz));
            for _ in 0..w.round() {
                let id = self.host_ns.len() as u64;
                let t0 = Instant::now();
                tr.begin_step(id);
                let r = w.step(tr);
                tr.end_step();
                let ns = t0.elapsed().as_nanos();
                self.host_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                if let Err(e) = r {
                    self.failed += 1;
                    self.problem(format!("step {id} failed: {e}"));
                }
            }
            let clock = &w.rig().machine.cpu(0).clock;
            let elapsed = clock.elapsed_cycles(mhz) - el0;
            self.sim_elapsed_cycles += elapsed;
            self.sim_system_cycles += clock.system_cycles() - sys0;
            rounds.push(elapsed);
            if Instant::now() >= until {
                return;
            }
        }
    }

    /// Host step statistics over the fastest [`KEEP_WINDOWS`] of the
    /// untraced windows: `(steps per second, sorted step times, windows
    /// kept)`.
    fn fast_windows(&self) -> (f64, Vec<u64>, usize) {
        let mut ranked: Vec<(u64, &Window)> = self
            .windows
            .iter()
            .filter(|w| !w.traced && w.end > w.first)
            .map(|w| (self.window_median(w), w))
            .collect();
        ranked.sort_by_key(|&(m, _)| m);
        let keep = ((ranked.len() as f64 * KEEP_WINDOWS).ceil() as usize).max(1);
        let mut steps = Vec::new();
        let mut ns = 0;
        for (_, w) in ranked.iter().take(keep) {
            steps.extend(self.host_ns[w.first..w.end].iter().map(|&t| u64::from(t)));
            ns += w.ns;
        }
        steps.sort_unstable();
        (
            ratio(steps.len() as f64 * 1e9, ns as f64),
            steps,
            keep.min(ranked.len()),
        )
    }

    fn window_median(&self, w: &Window) -> u64 {
        let mut s: Vec<u64> = self.host_ns[w.first..w.end]
            .iter()
            .map(|&t| u64::from(t))
            .collect();
        s.sort_unstable();
        stats::percentile(&s, 0.5)
    }

    /// `(steps, host ns)` over untraced or traced windows.
    fn rate(&self, traced: bool) -> (u64, u64) {
        self.windows
            .iter()
            .filter(|w| w.traced == traced)
            .fold((0, 0), |(s, n), w| (s + (w.end - w.first) as u64, n + w.ns))
    }
}

/// A fixed memory walk timed between windows. It depends on the host
/// and not on this program, so it tells host noise from a slower
/// program when a run looks wrong.
fn calibrate(buf: &mut [u8]) -> u64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for pass in 0..4 {
        for i in (pass * 16..buf.len()).step_by(64) {
            acc = acc.wrapping_add(u64::from(buf[i]));
            buf[i] = acc as u8 | 1;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

type Metric = (&'static str, f64, &'static str);

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

fn run(args: &Args) -> bool {
    let mut tr = Tracer::new(Instant::now());
    let mut cal = vec![1; CALIBRATION_BYTES];
    let mut r = Run {
        cpus: match affinity::allowed_cpus() {
            Ok(cpus) if !cpus.is_empty() => cpus,
            _ => vec![0],
        },
        ..Run::default()
    };
    let budget = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    for _ in 0..SEGMENTS {
        r.segment(args, &mut tr, &mut cal, budget);
    }

    let (plain_steps, plain_ns) = r.rate(false);
    let (traced_steps, traced_ns) = r.rate(true);
    let attempted = plain_steps + traced_steps;
    let (fast_rate, fast, kept) = r.fast_windows();

    print_diagnostics(args, &r, fast.len(), kept);
    for p in &r.problems {
        eprintln!("vmbench: {p}");
    }

    // Cycles per step first: that quotient is exact, so the figure is
    // the same to the last digit however many steps a run made.
    let mhz = r.mhz as f64;
    let metrics = if args.trace {
        layer_metrics(&r, &tr, (plain_steps, plain_ns), (traced_steps, traced_ns))
    } else {
        vec![
            ("ops_per_s", fast_rate, "1/s"),
            (
                "step_p50_us",
                stats::percentile(&fast, 0.5) as f64 / 1e3,
                "us",
            ),
            (
                "step_p99_us",
                stats::percentile(&fast, 0.99) as f64 / 1e3,
                "us",
            ),
            (
                "sim_elapsed_us_per_op",
                ratio(r.sim_elapsed_cycles as f64, attempted as f64) / mhz,
                "sim_us",
            ),
            (
                "sim_system_us_per_op",
                ratio(r.sim_system_cycles as f64, attempted as f64) / mhz,
                "sim_us",
            ),
            (
                "op_success_rate",
                ratio((attempted - r.failed) as f64, attempted as f64),
                "ratio",
            ),
            ("setup_s", stats::median(&r.setup_s), "s"),
            (
                "peak_rss_mb",
                stats::proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0,
                "MB",
            ),
        ]
    };

    let mut problems = r.problems.len();
    if args.trace {
        if let Err(e) = write_spans(&args.workload, args.seed, &tr) {
            eprintln!("vmbench: writing spans: {e}");
            problems += 1;
        }
    }
    let correct = problems == 0 && r.failed == 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        r.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    correct
}

/// Per-decile and per-window step medians, the calibration loop, and
/// the whole-run host figures next to the fast-window ones.
fn print_diagnostics(args: &Args, r: &Run, fast_steps: usize, kept: usize) {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let list = |v: Vec<String>| v.join(", ");
    let plain: Vec<u64> = r
        .windows
        .iter()
        .filter(|w| !w.traced)
        .flat_map(|w| r.host_ns[w.first..w.end].iter().map(|&t| u64::from(t)))
        .collect();
    let n = plain.len();
    let deciles = (0..10).map(|d| {
        let mut s = plain[d * n / 10..(d + 1) * n / 10].to_vec();
        s.sort_unstable();
        us(stats::percentile(&s, 0.5))
    });
    let windows = r
        .windows
        .iter()
        .filter(|w| !w.traced)
        .map(|w| us(r.window_median(w)));
    let mut all = plain.clone();
    all.sort_unstable();
    let (steps, ns) = r.rate(false);
    let p99_rank = (0.99 * fast_steps as f64).ceil() as usize;
    println!(
        "{{\"diag\": {{\"workload\": \"{}\", \"seed\": {}, \"host_cpus\": {}, \"max_threads\": {}, \
         \"steps\": {n}, \"windows\": {}, \"windows_kept\": {kept}, \"steps_kept\": {fast_steps}, \
         \"samples_beyond_p99\": {}, \"all_ops_per_s\": {:.1}, \"all_p50_us\": {}, \"all_p99_us\": {}, \
         \"decile_p50_us\": [{}], \"window_p50_us\": [{}], \"calibration_us\": [{}], \
         \"setup_s\": [{}], \"probe_steps\": {}, \"probe_allocs\": [{}], \"problems\": {}}}}}",
        args.workload,
        args.seed,
        r.cpus.len(),
        r.threads,
        r.windows.iter().filter(|w| !w.traced).count(),
        fast_steps.saturating_sub(p99_rank),
        ratio(steps as f64 * 1e9, ns as f64),
        us(stats::percentile(&all, 0.5)),
        us(stats::percentile(&all, 0.99)),
        list(deciles.collect()),
        list(windows.collect()),
        list(r.calibration_ns.iter().map(|&ns| us(ns)).collect()),
        list(r.setup_s.iter().map(|s| format!("{s:.4}")).collect()),
        r.probe_steps,
        list(r.probes.iter().map(|p| p.allocs.to_string()).collect()),
        r.problems.len(),
    );
}

fn layer_metrics(r: &Run, tr: &Tracer, plain: (u64, u64), traced: (u64, u64)) -> Vec<Metric> {
    let vm = &r.layer.vm;
    let p = &r.profile;
    let faults = vm.faults as f64;
    let per_op = |x: u64| ratio(x as f64, traced.0 as f64);
    let per_probe_op = |counts: Vec<f64>| ratio(stats::median(&counts), r.probe_steps as f64);
    let host_us = |l: Layer| {
        let t = tr.totals(l);
        ratio(t.self_ns as f64 / 1e3, t.count as f64)
    };
    let access_ns = tr.totals(Layer::Access).self_ns as f64;
    let rate = |(s, ns): (u64, u64)| ratio(s as f64, ns as f64);
    vec![
        ("fault.host_ns_per_fault", ratio(access_ns, faults), "ns"),
        (
            "fault.resident_hits_per_op",
            per_op(vm.resident_hits),
            "count",
        ),
        ("fault.cow_per_op", per_op(vm.cow_faults), "count"),
        (
            "fault.zero_fill_per_op",
            per_op(vm.zero_fill_count),
            "count",
        ),
        ("fault.pageins_per_op", per_op(vm.pageins), "count"),
        (
            "fault.sim_cycles_per_fault",
            ratio(p.fault_cycles as f64, p.faults as f64),
            "cycles",
        ),
        ("map.fork_host_us", host_us(Layer::Fork), "us"),
        ("map.deallocate_host_us", host_us(Layer::Deallocate), "us"),
        ("map.map_file_host_us", host_us(Layer::MapFile), "us"),
        (
            "map.hint_hit_ratio",
            ratio(vm.hint_hits as f64, (vm.hint_hits + vm.hint_misses) as f64),
            "ratio",
        ),
        ("object.teardown_host_us", host_us(Layer::Teardown), "us"),
        ("object.collapses_per_op", per_op(vm.collapses), "count"),
        ("object.bypasses_per_op", per_op(vm.bypasses), "count"),
        (
            "object.cache_hit_ratio",
            ratio(
                vm.object_cache_hits as f64,
                (vm.object_cache_hits + vm.object_cache_misses) as f64,
            ),
            "ratio",
        ),
        (
            "object.shadow_walk_sim_cycles_per_fault",
            ratio(p.shadow_walk_cycles as f64, p.faults as f64),
            "cycles",
        ),
        (
            "page.lock_acquisitions_per_fault",
            ratio(r.lock_acquisitions as f64, faults),
            "count",
        ),
        (
            "page.contended_ratio",
            ratio(r.lock_contended as f64, r.lock_acquisitions as f64),
            "ratio",
        ),
        ("pmap.enters_per_op", per_op(r.layer.pmap_enters), "count"),
        ("pmap.removes_per_op", per_op(r.layer.pmap_removes), "count"),
        (
            "pmap.protects_per_op",
            per_op(r.layer.pmap_protects),
            "count",
        ),
        (
            "pmap.enter_sim_cycles_per_fault",
            ratio(p.pmap_enter_cycles as f64, p.faults as f64),
            "cycles",
        ),
        ("hw.tlb_misses_per_op", per_op(r.layer.tlb_misses), "count"),
        ("pageout.reclaim_host_us", host_us(Layer::Reclaim), "us"),
        ("pageout.pageouts_per_op", per_op(vm.pageouts), "count"),
        (
            "pageout.reactivations_per_op",
            per_op(vm.reactivations),
            "count",
        ),
        (
            "fleet.pagein_host_us",
            ratio(access_ns / 1e3, vm.pageins as f64),
            "us",
        ),
        (
            "fleet.pager_wait_sim_cycles_per_pagein",
            ratio(p.pager_wait_cycles as f64, vm.pageins as f64),
            "cycles",
        ),
        (
            "fleet.throttles_per_op",
            per_op(vm.pager_throttles),
            "count",
        ),
        ("fleet.queue_depth_hwm", r.fleet_depth_hwm as f64, "count"),
        (
            "heap.allocs_per_op",
            per_probe_op(r.probes.iter().map(|c| c.allocs as f64).collect()),
            "count",
        ),
        (
            "heap.bytes_per_op",
            per_probe_op(r.probes.iter().map(|c| c.alloc_bytes as f64).collect()),
            "bytes",
        ),
        (
            "trace.overhead_ratio",
            ratio(rate(plain), rate(traced)),
            "ratio",
        ),
    ]
}

/// Spans go to `vmbench/out/` under the directory the benchmark runs in.
fn write_spans(workload: &str, seed: u64, tr: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new("vmbench/out");
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("spans-{workload}-{seed}.tsv")))?;
    let mut out = std::io::BufWriter::new(file);
    tr.write_to(&mut out)?;
    std::io::Write::flush(&mut out)
}
