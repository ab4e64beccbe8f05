//! In-memory spans, recorded only around calls the benchmark itself makes,
//! and written out as a tab-separated file when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `trace_id`; `parent` is
/// the index of the causing span in the same list.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn root(
        trace_id: u64,
        name: &'static str,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Self {
        Span {
            trace_id,
            parent: None,
            name,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records child spans of one request as it is replayed.
pub struct Recorder<'a> {
    spans: &'a mut Vec<Span>,
    epoch: Instant,
    root: usize,
}

impl<'a> Recorder<'a> {
    /// Opens the request's root span.
    pub fn open(
        spans: &'a mut Vec<Span>,
        epoch: Instant,
        trace_id: u64,
        name: &'static str,
    ) -> Self {
        let now = Instant::now();
        spans.push(Span::root(trace_id, name, epoch, now, now));
        let root = spans.len() - 1;
        Recorder { spans, epoch, root }
    }

    /// Times `f` as a child span named `name`.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut span = Span::root(self.spans[self.root].trace_id, name, self.epoch, start, end);
        span.parent = Some(self.root);
        self.spans.push(span);
        out
    }

    /// Closes the root span now.
    pub fn close(self) {
        self.spans[self.root].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }
}

/// Self time of every span, grouped by name: its duration minus the part
/// of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = children
            .get_mut(&i)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        out.entry(s.name)
            .or_default()
            .push(s.duration_ns() - covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes every span, one per line: trace id, span index, parent index
/// (`-` for a root), name, start and end in ns since the run's epoch.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "trace_id\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.trace_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace_id: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 30),
            // Overlaps `a` by 10 and runs past the root's end by 10.
            span(Some(0), "b", 20, 110),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], [10]); // covered: 10..100
        assert_eq!(t["a"], [20]);
        assert_eq!(t["b"], [90]);
    }
}
