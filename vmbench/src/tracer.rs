//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Off, a span is one branch; on, it reads the host
//! clock twice and appends a record to an in-memory buffer that is
//! written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// The public calls the benchmark brackets, named after the module that
/// serves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole workload step (the root of every other span).
    Step,
    /// `Task::fork`.
    Fork,
    /// A `UserCtx` accessor: the MMU access plus any faults it takes.
    Access,
    /// `VmMap::allocate`.
    Allocate,
    /// `VmMap::deallocate`.
    Deallocate,
    /// `Kernel::map_file`.
    MapFile,
    /// `Kernel::reclaim`.
    Reclaim,
    /// Dropping the last reference to a task (address-space teardown).
    Teardown,
}

pub const LAYERS: usize = 8;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Fork => "map.fork",
            Layer::Access => "fault.access",
            Layer::Allocate => "map.allocate",
            Layer::Deallocate => "map.deallocate",
            Layer::MapFile => "map.map_file",
            Layer::Reclaim => "pageout.reclaim",
            Layer::Teardown => "object.teardown",
        }
    }
}

/// One recorded span. `parent` indexes the enclosing step span in the
/// buffer (`u32::MAX` for a step itself).
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    step: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals over every span closed while on.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Spans kept in full; past this, spans still feed [`LayerTotals`] but
/// are not stored, so a long traced run cannot exhaust memory.
const KEEP_SPANS: usize = 1 << 16;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    totals: [LayerTotals; LAYERS],
    /// The open step: its id, buffer index, start, and child time so far.
    step: Option<(u64, u32, Instant, u64)>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
            dropped: 0,
            totals: [LayerTotals::default(); LAYERS],
            step: None,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        if on && self.spans.capacity() == 0 {
            self.spans.reserve_exact(KEEP_SPANS);
        }
        self.on = on;
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        }
    }

    /// Open the root span of step `id`.
    pub fn begin_step(&mut self, id: u64) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        let idx = self.push(Span {
            layer: Layer::Step,
            step: id,
            parent: u32::MAX,
            start_ns: self.ns(now),
            end_ns: 0,
        });
        self.step = Some((id, idx, now, 0));
    }

    pub fn end_step(&mut self) {
        let Some((_, idx, start, child_ns)) = self.step.take() else {
            return;
        };
        let now = Instant::now();
        let total = now.duration_since(start).as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = s.start_ns + total;
        }
        let t = &mut self.totals[Layer::Step as usize];
        t.count += 1;
        t.self_ns += total.saturating_sub(child_ns);
    }

    /// Run `f` inside a span of `layer`, a child of the open step.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let dur = t1.duration_since(t0).as_nanos() as u64;
        let (step, parent) = match self.step.as_mut() {
            Some((id, idx, _, child_ns)) => {
                *child_ns += dur;
                (*id, *idx)
            }
            None => (u64::MAX, u32::MAX),
        };
        let start_ns = self.ns(t0);
        self.push(Span {
            layer,
            step,
            parent,
            start_ns,
            end_ns: start_ns + dur,
        });
        let t = &mut self.totals[layer as usize];
        t.count += 1;
        t.self_ns += dur;
        r
    }

    /// Write the kept spans as tab-separated `step parent name start_ns
    /// end_ns` rows, then one `# dropped N` line.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "step\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.step,
                parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "# dropped {}", self.dropped)
    }
}
