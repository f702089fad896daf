//! In-memory spans recorded around calls into each layer's public functions.
//!
//! A span is named `layer.operation`; the layer is the part before the dot
//! and is one of [`LAYERS`]. A traced operation that makes several layer
//! calls is one root span named [`ROOT`] around them, and spans of one
//! operation share its run id. A span's self time is its duration minus the
//! time its child spans cover; the traced time is the time top-level spans
//! cover.

use std::time::Instant;

/// The layers spans are attributed to, named after the repository modules.
pub const LAYERS: [&str; 12] = [
    "nbody", "kernels", "ir", "layouts", "exec", "timed", "backend", "sim", "ckpt", "fleet",
    "model", "analyze",
];

/// Name of the root span around one traced operation. It belongs to no
/// layer: its self time is time no layer span covers.
pub const ROOT: &str = "op";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, or [`ROOT`].
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (request) this span belongs to.
    pub run: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span is attributed to (`None` for [`ROOT`]).
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. `f` gets the tracer back to open child spans. A top-level span
    /// is one operation: the next one gets a fresh run id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        if self.open.is_empty() {
            self.run += 1;
        }
        out
    }

    /// [`span`](Self::span) when `enabled`, otherwise just `f`.
    pub fn span_if<T>(
        &mut self,
        enabled: bool,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if enabled {
            self.span(name, f)
        } else {
            f(self)
        }
    }

    /// Run one traced operation of several layer calls: a [`ROOT`] span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span(ROOT, f)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}\n",
                    s.name, s.start_ns, s.end_ns, s.run
                )
            })
            .collect()
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Children of one span never overlap (the tracer is single-threaded and
/// strictly nested), so their union is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Where the traced time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Total duration of the top-level spans, in nanoseconds.
    pub root_ns: u64,
    /// Self time per layer, in [`LAYERS`] order, in nanoseconds.
    pub layer_ns: [u64; LAYERS.len()],
    /// Root self time: traced time no layer span covers.
    pub unattributed_ns: u64,
}

/// Sum self times per layer over every span.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = self_times(spans);
    let mut b = Breakdown {
        root_ns: 0,
        layer_ns: [0; LAYERS.len()],
        unattributed_ns: 0,
    };
    for (s, t) in spans.iter().zip(own) {
        if s.parent.is_none() {
            b.root_ns += s.duration_ns();
        }
        match s.layer() {
            None => b.unattributed_ns += t,
            Some(layer) => {
                let i = LAYERS
                    .iter()
                    .position(|&l| l == layer)
                    .unwrap_or_else(|| panic!("span {} names no known layer", s.name));
                b.layer_ns[i] += t;
            }
        }
    }
    b
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Measured cost of recording one span, in nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::default();
    let start = Instant::now();
    for _ in 0..N {
        t.span("exec.calibrate", |_| ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > nbody.integrate [10,90) > exec.launch [20,70) > layouts.upload [30,40)
        //            > backend.nan_scan [92,95)
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("nbody.integrate", 10, 90, Some(0)),
            span("exec.launch", 20, 70, Some(1)),
            span("layouts.upload", 30, 40, Some(2)),
            span("backend.nan_scan", 92, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![17, 30, 40, 10, 3]);
        let b = breakdown(&spans);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.unattributed_ns, 17);
        let at = |l: &str| b.layer_ns[LAYERS.iter().position(|&x| x == l).unwrap()];
        assert_eq!(at("nbody"), 30);
        assert_eq!(at("exec"), 40);
        assert_eq!(at("layouts"), 10);
        assert_eq!(at("backend"), 3);
        // Self times partition the root time.
        assert_eq!(
            b.layer_ns.iter().sum::<u64>() + b.unattributed_ns,
            b.root_ns
        );
    }

    #[test]
    fn tracer_nests_and_numbers_runs() {
        let mut t = Tracer::default();
        let v = t.op(|t| t.span("kernels.build", |t| t.span("ir.lower", |_| 7)));
        assert_eq!(v, 7);
        t.op(|t| t.span("exec.launch", |_| ()));
        // A top-level layer span is an operation of its own.
        t.span("fleet.tick", |_| ());
        t.span_if(false, "fleet.tick", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.iter().map(|x| x.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1), None, Some(3), None]
        );
        assert_eq!(
            s.iter().map(|x| x.run).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 2]
        );
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.to_json_lines().lines().count() == 6);
        let b = breakdown(s);
        assert_eq!(
            b.layer_ns.iter().sum::<u64>() + b.unattributed_ns,
            b.root_ns
        );
    }
}
