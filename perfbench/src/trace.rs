//! In-memory spans for the traced run.
//!
//! A span has a name (`layer.stage`), start and end (seconds since the
//! tracer started), the span that caused it, and for the serve stream the id
//! of the request it belongs to. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends; each layer's self
//! time is derived from them afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub request: Option<u64>,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer started.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records an interval timed elsewhere; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start: self.at(start),
            end: self.at(end),
            request,
        });
        id
    }

    /// Opens a span, runs `f` with the span's id (the parent of anything
    /// `f` records) and closes the span when `f` returns.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.record(name, parent, None, Instant::now(), Instant::now());
        let out = f(id);
        let end = self.at(Instant::now());
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = Vec::new();
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"request\":{}}}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                s.name,
                s.start,
                s.end,
                opt(s.request)
            )?;
        }
        std::fs::write(path, out)
    }
}

/// Total self time per span name: each span's duration minus the part of
/// it that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 3.0),
            span(2, Some(0), "a", 2.0, 5.0),
            // Clipped to the parent's end.
            span(3, Some(0), "b", 8.0, 12.0),
            span(4, Some(1), "c", 1.5, 2.0),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 4.0).abs() < 1e-12);
        assert!((t["a"] - (1.5 + 3.0)).abs() < 1e-12);
        assert!((t["b"] - 4.0).abs() < 1e-12);
        assert!((t["c"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_write_out() {
        let tr = Tracer::default();
        tr.span("outer", None, |id| {
            tr.span("inner", Some(id), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let t = self_times(&spans);
        assert!(t["inner"] >= 0.002 && t["outer"] >= 0.0);
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            knnshap_obs::json::parse(line).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }
}
