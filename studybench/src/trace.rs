//! In-memory spans recorded around the benchmark's own calls into the
//! layers. Spans are kept in a `Vec` and written out once the run ends, so
//! recording never touches the filesystem while the workload is timed.

use std::io::Write;
use std::time::Instant;

/// One closed interval: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Span store for one workload run. Every span carries `run_id`.
pub struct Tracer {
    pub run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: String, origin: Instant) -> Self {
        Tracer {
            run_id,
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a closed span and returns its id (for children to cite).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Self time per span name, summed over spans of that name: each span's
    /// duration minus the part its children cover. Children of one parent
    /// are recorded back to back, never overlapping.
    pub fn self_secs(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.spans {
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::secs)
                .sum();
            let own = s.secs() - children;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Writes one JSON object per span (offsets in microseconds from the
    /// run's origin).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.origin).as_micros();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                self.run_id,
                s.id,
                parent,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        f.flush()
    }
}
