//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every outside call is timed the same way whether or not tracing is
//! on; a traced run additionally keeps the span in memory and writes
//! all of them to `out/trace-<workload>.jsonl` when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use apar_core::jsonio::Json;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Spans of one operation share this number.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with
    /// [`Tracer::close`]. Returns `ROOT` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Times `f`, returning its result and its duration in
    /// milliseconds, and records the span when tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        if self.on {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
            });
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// One JSON object per line, in the order the spans were opened.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id", Json::Int(s.id as i64)),
                ("parent", Json::Int(s.parent as i64)),
                ("request", Json::Int(s.request as i64)),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.render_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_are_dropped_when_off() {
        let mut tr = Tracer::new(true);
        let root = tr.open("request", ROOT, 7);
        let (v, ms) = tr.time("child", root, 7, || 41 + 1);
        tr.close(root);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        let [outer, inner] = tr.spans() else {
            panic!("two spans expected")
        };
        assert_eq!((outer.id, outer.parent, inner.parent), (1, ROOT, 1));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut off = Tracer::new(false);
        let root = off.open("request", ROOT, 1);
        off.time("child", root, 1, || ());
        off.close(root);
        assert!(off.spans().is_empty());
    }
}
