//! Spans the benchmark records around its own calls into each layer,
//! and the self-time arithmetic over them.
//!
//! A span is a named interval with a parent and the id of the request
//! it belongs to. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover (see [`self_times`] for
//! concurrent children). Whatever a root span's children leave
//! uncovered is time no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval, nanoseconds from the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or root operation) name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same log; `None` for a root.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// An append-only span log. Each recording thread keeps its own and
/// [`SpanLog::absorb`]s it into one at the end; all share one epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant spans are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, start, end, parent, request)
    }

    /// Record a span given in nanoseconds from the epoch.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        debug_assert!(start <= end, "{name}: span ends before it starts");
        debug_assert!(parent.is_none_or(|p| p < self.spans.len()));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Move every span of `other` (same epoch) into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the log as tab-separated lines (`id parent request name
    /// start_ns end_ns self_ns`, parent `-` for a root).
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own:.0}",
                s.request, s.name, s.start, s.end
            )
            .expect("write to String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Self time of every span, ns: the part of its interval no child
/// span covers. Where children run concurrently they share each
/// stretch they overlap equally, so the self times of a tree add up to
/// its root's duration. Children are clipped to their parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    // Weighted pieces `(start, end, weight)` of each span's interval
    // handed down by its parent; a root owns its whole interval.
    let mut pieces: Vec<Vec<(u64, u64, f64)>> = vec![Vec::new(); spans.len()];
    let mut selfs = vec![0.0; spans.len()];
    // Parents precede their children in a log, so one forward pass
    // hands every span its pieces before it is split.
    for i in 0..spans.len() {
        if spans[i].parent.is_none() {
            pieces[i].push((spans[i].start, spans[i].end, 1.0));
        }
        for (a, b, w) in std::mem::take(&mut pieces[i]) {
            let mut cuts = vec![a, b];
            for &k in &kids[i] {
                cuts.extend([spans[k].start, spans[k].end].map(|x| x.clamp(a, b)));
            }
            cuts.sort_unstable();
            cuts.dedup();
            for cut in cuts.windows(2) {
                let (x, y) = (cut[0], cut[1]);
                let covering: Vec<usize> = kids[i]
                    .iter()
                    .copied()
                    .filter(|&k| spans[k].start <= x && spans[k].end >= y)
                    .collect();
                if covering.is_empty() {
                    selfs[i] += (y - x) as f64 * w;
                } else {
                    let share = w / covering.len() as f64;
                    for k in covering {
                        pieces[k].push((x, y, share));
                    }
                }
            }
        }
    }
    selfs
}

/// Per-name totals of one log: self time, span count, and the
/// remainder no layer covers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// `(span name, total self ns, spans)` for every non-root name.
    pub layers: Vec<(&'static str, f64, u64)>,
    /// Total duration of the root spans considered.
    pub root_ns: f64,
    /// Self time of those roots: covered by no layer's span.
    pub unattributed_ns: f64,
}

impl LayerTable {
    /// Aggregate the trees under root spans named in `roots` (other
    /// trees are ignored).
    pub fn build(spans: &[Span], roots: &[&str]) -> Self {
        let selfs = self_times(spans);
        // Root of every span; parents always precede their children.
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            root_of.push(s.parent.map_or(i, |p| root_of[p]));
        }
        let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let (mut root_ns, mut unattributed_ns) = (0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            if !roots.contains(&spans[root_of[i]].name) {
                continue;
            }
            if s.parent.is_none() {
                root_ns += (s.end - s.start) as f64;
                unattributed_ns += selfs[i];
            } else {
                let e = by_name.entry(s.name).or_default();
                e.0 += selfs[i];
                e.1 += 1;
            }
        }
        LayerTable {
            layers: by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect(),
            root_ns,
            unattributed_ns,
        }
    }

    /// Share of root time no layer covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.root_ns == 0.0 {
            0.0
        } else {
            self.unattributed_ns / self.root_ns
        }
    }

    /// Human-readable table ending in the unattributed remainder.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n  {:<28} {:>12} {:>9} {:>8}\n",
            "layer (self time)", "total_ms", "share", "spans"
        );
        let share = |ns: f64| {
            if self.root_ns == 0.0 {
                0.0
            } else {
                100.0 * ns / self.root_ns
            }
        };
        for (name, ns, count) in &self.layers {
            writeln!(
                out,
                "  {name:<28} {:>12.3} {:>8.2}% {count:>8}",
                ns / 1e6,
                share(*ns)
            )
            .expect("write to String");
        }
        writeln!(
            out,
            "  {:<28} {:>12.3} {:>8.2}%",
            "unattributed",
            self.unattributed_ns / 1e6,
            share(self.unattributed_ns)
        )
        .expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60.0, 20.0, 10.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel shard calls [10,50) and [30,70) cover [10,70)
        // and share [30,50); the second has a child in the shared part.
        let spans = vec![
            span("root", 0, 100, None),
            span("shard", 10, 50, Some(0)),
            span("shard", 30, 70, Some(0)),
            span("merge", 70, 80, Some(0)),
            span("scan", 40, 60, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![30.0, 30.0, 15.0, 10.0, 15.0]);
        assert_eq!(selfs.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("early", 50, 150, Some(0)),
            span("late", 190, 300, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        // A child keeps only the part of its interval inside its parent.
        assert_eq!(self_times(&spans), vec![40.0, 50.0, 10.0, 0.0]);
    }

    #[test]
    fn table_totals_and_unattributed_share() {
        let mut log = SpanLog::new(Instant::now());
        let r = log.push("search", 0, 100, None, 1);
        log.push("vecdb.knn", 10, 70, Some(r), 1);
        let other = log.push("setup", 0, 1000, None, 0);
        log.push("vecdb.collection", 0, 1000, Some(other), 0);
        let mut second = SpanLog::new(log.epoch);
        let r2 = second.push("search", 200, 300, None, 2);
        second.push("vecdb.knn", 200, 290, Some(r2), 2);
        log.absorb(second);
        assert_eq!(log.spans()[5].parent, Some(4));
        let table = LayerTable::build(log.spans(), &["search"]);
        assert_eq!(table.layers, vec![("vecdb.knn", 150.0, 2)]);
        assert_eq!((table.root_ns, table.unattributed_ns), (200.0, 50.0));
        assert_eq!(table.unattributed_share(), 0.25);
        assert!(table.render("t").ends_with("25.00%\n"));
    }
}
