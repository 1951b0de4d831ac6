//! An in-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, layer, start, end, parent, op id), kept in memory and written
//! out as JSON lines when the run ends. A layer's self time is the time
//! its spans cover minus the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The repository layers, plus the benchmark's own work (answer checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Serve,
    Sql,
    Storage,
    Exec,
    Optimizer,
    Stratum,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Serve,
        Layer::Sql,
        Layer::Storage,
        Layer::Exec,
        Layer::Optimizer,
        Layer::Stratum,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Serve => "serve",
            Layer::Sql => "sql",
            Layer::Storage => "storage",
            Layer::Exec => "exec",
            Layer::Optimizer => "optimizer",
            Layer::Stratum => "stratum",
        }
    }

    /// The per-layer metric reporting this layer's self time per op.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Bench => "self.bench_ms",
            Layer::Serve => "self.serve_ms",
            Layer::Sql => "self.sql_ms",
            Layer::Storage => "self.storage_ms",
            Layer::Exec => "self.exec_ms",
            Layer::Optimizer => "self.optimizer_ms",
            Layer::Stratum => "self.stratum_ms",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// same replay code runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Recorder::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the spans of operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per span name: (count, total ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.ns();
        }
        out
    }

    /// Per layer: total self time in ns.
    pub fn self_ns(&self) -> BTreeMap<Layer, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.op,
                s.layer.as_str(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.set_op(3);
        let root = r.enter(Layer::Bench, "read");
        r.span(Layer::Sql, "parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(root);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].op, 3);
        let selfs = r.self_ns();
        assert!(selfs[&Layer::Sql] >= 2_000_000);
        assert!(selfs[&Layer::Bench] < r.spans[0].ns());
        assert_eq!(selfs[&Layer::Bench] + selfs[&Layer::Sql], r.spans[0].ns());
        assert_eq!(r.by_name()["parse"].0, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let open = r.enter(Layer::Exec, "lower");
        r.exit(open);
        assert!(r.spans.is_empty());
    }
}
