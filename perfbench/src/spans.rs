//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written out as JSON lines when the run ends. Off unless
//! the run is traced, so an untraced run pays one branch per span.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    /// The request this span serves (first request of a batch), or 0.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

pub struct Guard<'a> {
    spans: &'a Spans,
    name: &'static str,
    id: u64,
    req: u64,
    start_ns: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let rec = SpanRec {
            name: self.name,
            id: self.id,
            req: self.req,
            start_ns: self.start_ns,
            end_ns: self.spans.now_ns(),
        };
        self.spans.recs.lock().expect("span buffer").push(rec);
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req` (0 for a phase of the run).
    pub fn open(&self, name: &'static str, req: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                spans: self,
                name,
                id: 0,
                req,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Guard {
            spans: self,
            name,
            id,
            req,
            start_ns: self.now_ns(),
        }
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let recs = self.recs.lock().expect("span buffer");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in recs.iter() {
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"req":{},"start_ns":{},"end_ns":{}}}"#,
                r.name, r.id, r.req, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}
