//! Spans the benchmark records around its own calls into each layer,
//! kept in memory and written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One decision as the client sees it: the in-process call or the
    /// HTTP round trip.
    Request,
    /// The server's handler for one HTTP request.
    Handle,
    Parse,
    Admit,
    Decide,
    /// A `PolicyLattice::query` answered from the lattice.
    Lookup,
    /// An exact answer: `solve_exact`, or a lattice query that fell back
    /// to it.
    Exact,
    Render,
    /// One `run_trials_batched` call.
    McRun,
    /// Trials of `run_once_batched` in a bare loop.
    Trials,
    /// Variates drawn through `Sample::sample_batch_mono`.
    Draws,
    /// Streams derived by `Xoshiro256pp::for_stream`.
    Streams,
}

/// A request has at most one span per layer, so a span's id is
/// `request · SLOTS + layer`: client and server threads derive the same
/// ids without coordinating.
const SLOTS: u64 = 16;

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Request,
        Layer::Handle,
        Layer::Parse,
        Layer::Admit,
        Layer::Decide,
        Layer::Lookup,
        Layer::Exact,
        Layer::Render,
        Layer::McRun,
        Layer::Trials,
        Layer::Draws,
        Layer::Streams,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Handle => "serve.handle",
            Layer::Parse => "serve.parse",
            Layer::Admit => "serve.admit",
            Layer::Decide => "serve.decide",
            Layer::Lookup => "lattice.lookup",
            Layer::Exact => "solve.exact",
            Layer::Render => "serve.render",
            Layer::McRun => "mc.run",
            Layer::Trials => "sim.trials",
            Layer::Draws => "dist.draws",
            Layer::Streams => "rng.streams",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub layer: Layer,
    pub parent: Option<Layer>,
    /// The law family (decisions) or law role (draws) the span served.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.request * SLOTS + self.layer as u64
    }

    pub fn parent_id(&self) -> Option<u64> {
        self.parent.map(|p| self.request * SLOTS + p as u64)
    }

    pub fn nanos(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// The in-memory span buffer, shared by the client and server threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        request: u64,
        layer: Layer,
        parent: Option<Layer>,
        tag: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            request,
            layer,
            parent,
            tag,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Runs `f` under an untagged span.
    pub fn time<T>(
        &self,
        request: u64,
        layer: Layer,
        parent: Option<Layer>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, layer, parent, "", start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Span count, total time and self time of one layer; self time is a
/// span's duration minus the durations of its children.
#[derive(Debug, Clone, Copy)]
pub struct LayerTime {
    pub layer: Layer,
    pub count: usize,
    pub total_ns: f64,
    pub self_ns: f64,
}

pub fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut child_ns: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent_id() {
            *child_ns.entry(p).or_default() += s.nanos();
        }
    }
    Layer::ALL
        .iter()
        .filter_map(|&layer| {
            let mine: Vec<&Span> = spans.iter().filter(|s| s.layer == layer).collect();
            if mine.is_empty() {
                return None;
            }
            let total_ns: f64 = mine.iter().map(|s| s.nanos()).sum();
            let children: f64 = mine
                .iter()
                .map(|s| child_ns.get(&s.id()).copied().unwrap_or(0.0))
                .sum();
            Some(LayerTime {
                layer,
                count: mine.len(),
                total_ns,
                self_ns: (total_ns - children).max(0.0),
            })
        })
        .collect()
}

/// Durations (ns) of the spans of `layer`, restricted to `tag` if given.
pub fn durations(spans: &[Span], layer: Layer, tag: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && tag.is_none_or(|t| s.tag == t))
        .map(Span::nanos)
        .collect()
}

/// Writes `{"host": …, "spans": [{id, parent, request, name, tag,
/// start_ns, end_ns}, …]}` to `path`.
pub fn write_json(path: &Path, host: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"host\":{host},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent_id().map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{}\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i > 0 { "," } else { "" },
            s.id(),
            s.request,
            s.layer.name(),
            s.tag,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, layer: Layer, parent: Option<Layer>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request,
            layer,
            parent,
            tag: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_request_only() {
        let spans = [
            span(1, Layer::Request, None, 0, 100),
            span(1, Layer::Parse, Some(Layer::Request), 0, 10),
            span(1, Layer::Decide, Some(Layer::Request), 10, 90),
            span(1, Layer::Lookup, Some(Layer::Decide), 20, 80),
            span(2, Layer::Request, None, 100, 150),
        ];
        let times = layer_times(&spans);
        let get = |l| times.iter().find(|t| t.layer == l).copied().unwrap();
        assert_eq!(get(Layer::Request).count, 2);
        assert_eq!(get(Layer::Request).total_ns, 150.0);
        assert_eq!(get(Layer::Request).self_ns, 60.0);
        assert_eq!(get(Layer::Decide).self_ns, 20.0);
        assert_eq!(get(Layer::Lookup).self_ns, 60.0);
        assert!(times.iter().all(|t| t.layer != Layer::Render));
    }
}
