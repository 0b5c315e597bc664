//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer, never inside the program. A span is named
//! `<layer>.<what>`; the text before the first `.` is the layer its
//! self time is charged to. Every span carries the id of the pass that
//! caused it, so the spans of one pass can be grouped after the run.
//! When the tracer is off, `span` only runs the closure: no clock
//! reads and no allocation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub pass: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new pass: later spans carry the next pass id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// A tracer for another thread that shares this one's epoch and
    /// pass id; its spans rejoin this tracer through [`Tracer::adopt`].
    pub fn for_thread(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            pass: self.pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Take over the spans of a thread tracer; its root spans become
    /// children of the span open here.
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Self time per layer, in nanoseconds: each span's duration minus
    /// the part of it that its children cover (children on other
    /// threads may overlap, so coverage is a union of intervals).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer_of(s.name)).or_insert(0) += own;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        w.flush()
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "harness.pass",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                pass: 1,
            },
            Span {
                name: "mc.a",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                pass: 1,
            },
            Span {
                name: "core.b",
                start_ns: 40,
                end_ns: 70,
                parent: Some(0),
                pass: 1,
            },
        ];
        let by = t.self_ns_by_layer();
        assert_eq!(by["harness"], 40);
        assert_eq!(by["mc"], 40);
        assert_eq!(by["core"], 30);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("mc.x", |t| t.span("core.y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
