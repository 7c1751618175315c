//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the system's public API, from
//! the benchmark's own code. Nothing here reaches inside the program:
//! a layer's time is what its public entry point costs its caller.
//! When tracing is off, [`Tracer::time`] only calls the closure, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Per-layer aggregate: self time of every span with one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub self_ms: Vec<f64>,
}

impl Layer {
    pub fn total_ms(&self) -> f64 {
        self.self_ms.iter().sum()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let ix = self.open.pop().expect("exit without a matching enter");
        self.spans[ix].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self times grouped by span name, restricted to spans of `runs`.
    pub fn layers(&self, runs: &[u32]) -> BTreeMap<&'static str, Layer> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if runs.contains(&span.run) {
                out.entry(span.name)
                    .or_default()
                    .self_ms
                    .push(ns as f64 / 1e6);
            }
        }
        out
    }

    /// Total duration of the root spans named `root` in `runs`.
    pub fn root_ms(&self, root: &str, runs: &[u32]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root && runs.contains(&s.run))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Share of the root spans named `root` (in `runs`) that their
    /// descendants' self time covers: 1.0 when the layer spans account
    /// for every nanosecond of the end-to-end wall time.
    pub fn coverage(&self, root: &str, runs: &[u32]) -> f64 {
        let total = self.root_ms(root, runs);
        if total <= 0.0 {
            return 1.0;
        }
        let own = self.self_ns();
        let mut root_self = 0.0;
        for (span, ns) in self.spans.iter().zip(own) {
            if span.parent.is_none() && span.name == root && runs.contains(&span.run) {
                root_self += ns as f64 / 1e6;
            }
        }
        1.0 - root_self / total
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_is_a_share() {
        let mut t = Tracer::new(true);
        t.set_run(1);
        t.enter("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let layers = t.layers(&[1]);
        let root = layers["root"].total_ms();
        let child = layers["child"].total_ms();
        assert!(child >= 5.0);
        assert!((root + child - t.root_ms("root", &[1])).abs() < 1e-6);
        let cov = t.coverage("root", &[1]);
        assert!(cov > 0.5 && cov <= 1.0);
        assert!(t.layers(&[2]).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
