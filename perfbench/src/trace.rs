//! Spans recorded in the benchmark's own code, around each call into a
//! layer's public function, and the self-time arithmetic over them.
//!
//! Every op opens one root span (`op`); each call into the catalog or
//! Delta opens a child span under it. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus the part of its interval that its children cover, so the self
//! times of one op's spans sum to the op span's duration.

use std::io::Write;
use std::time::Instant;

/// The span names, one per layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The op itself; its self time is the benchmark's own work.
    Op,
    CatalogResolve,
    CatalogGet,
    CatalogList,
    CatalogCreate,
    CatalogGrant,
    CatalogCommit,
    CatalogDrop,
    DeltaSnapshot,
    DeltaScan,
}

impl Layer {
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::CatalogResolve => "catalog.resolve_for_query",
            Layer::CatalogGet => "catalog.get_table",
            Layer::CatalogList => "catalog.list_children",
            Layer::CatalogCreate => "catalog.create_table",
            Layer::CatalogGrant => "catalog.grant",
            Layer::CatalogCommit => "catalog.commit_table",
            Layer::CatalogDrop => "catalog.drop_securable",
            Layer::DeltaSnapshot => "delta.snapshot",
            Layer::DeltaScan => "delta.scan",
        }
    }

    /// The module a span's self time is charged to.
    pub fn module(self) -> Module {
        match self {
            Layer::Op => Module::Bench,
            Layer::DeltaSnapshot => Module::DeltaSnapshot,
            Layer::DeltaScan => Module::DeltaScan,
            _ => Module::Catalog,
        }
    }
}

/// Where self time is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    Bench,
    Catalog,
    DeltaSnapshot,
    DeltaScan,
}

impl Module {
    fn index(self) -> usize {
        self as usize
    }
}

/// What a workload's op sees: a recorder of layer calls. The untraced
/// run uses [`NoSpans`], which compiles to direct calls.
pub trait Spans {
    fn begin_op(&mut self);
    fn end_op(&mut self);
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Tracing off.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn begin_op(&mut self) {}
    #[inline(always)]
    fn end_op(&mut self) {}
    #[inline(always)]
    fn call<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to (shared by every span of the op).
    pub op: u64,
    /// Index of the parent span in the log; `None` for an op span.
    pub parent: Option<u32>,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Tracing on: an in-memory span log for one client thread. Op ids are
/// `first_op + n`, so logs of different clients never share an id.
pub struct SpanLog {
    epoch: Instant,
    next_op: u64,
    open_op: Option<u32>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, first_op: u64, capacity: usize) -> Self {
        SpanLog {
            epoch,
            next_op: first_op,
            open_op: None,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Spans for SpanLog {
    fn begin_op(&mut self) {
        let start_ns = self.now_ns();
        self.open_op = Some(self.spans.len() as u32);
        self.spans.push(Span {
            op: self.next_op,
            parent: None,
            layer: Layer::Op,
            start_ns,
            end_ns: start_ns,
        });
        self.next_op += 1;
    }

    fn end_op(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.open_op.take() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let op = self
            .open_op
            .map(|i| self.spans[i as usize].op)
            .unwrap_or(u64::MAX);
        self.spans.push(Span {
            op,
            parent: self.open_op,
            layer,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval. Children
/// must appear after their parent in `spans` (the order [`SpanLog`]
/// records them in).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - covered(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-module self time, and how well each op's self times add up to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimeSummary {
    /// Total self nanoseconds per [`Module`], in declaration order.
    pub module_ns: [u64; 4],
    pub ops: u64,
    /// Largest |Σ self − op duration| / op duration over all ops.
    pub max_conservation_error: f64,
    /// Ops whose self times miss their op span by more than 5 %.
    pub ops_over_tolerance: u64,
}

impl SelfTimeSummary {
    pub fn module_us_per_op(&self, m: Module) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.module_ns[m.index()] as f64 / 1e3 / self.ops as f64
    }
}

/// Conservation tolerance per op, as a share of the op span.
pub const CONSERVATION_TOLERANCE: f64 = 0.05;

/// Summarise one span log: charge self times to modules and check that
/// every op's self times sum to its op span.
pub fn summarize(spans: &[Span]) -> SelfTimeSummary {
    let selfs = self_times(spans);
    let mut out = SelfTimeSummary::default();
    // Σ self per op, keyed by the op span's index. Parents precede their
    // children, so each span's root is known when it is reached.
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    let mut per_op: Vec<u64> = vec![0; spans.len()];
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        out.module_ns[s.layer.module().index()] += own;
        let r = s.parent.map_or(i, |p| root[p as usize]);
        root.push(r);
        per_op[r] += own;
    }
    for (s, sum) in spans.iter().zip(&per_op) {
        if s.parent.is_some() {
            continue;
        }
        out.ops += 1;
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let err = if dur == 0 {
            0.0
        } else {
            (*sum as f64 - dur as f64).abs() / dur as f64
        };
        out.max_conservation_error = out.max_conservation_error.max(err);
        if err > CONSERVATION_TOLERANCE {
            out.ops_over_tolerance += 1;
        }
    }
    out
}

/// Merge summaries of several client logs.
pub fn merge(parts: &[SelfTimeSummary]) -> SelfTimeSummary {
    let mut out = SelfTimeSummary::default();
    for p in parts {
        for (a, b) in out.module_ns.iter_mut().zip(p.module_ns) {
            *a += b;
        }
        out.ops += p.ops;
        out.max_conservation_error = out.max_conservation_error.max(p.max_conservation_error);
        out.ops_over_tolerance += p.ops_over_tolerance;
    }
    out
}

/// Write span logs as tab-separated lines, at most `max_spans` of them:
/// op, span id, parent span id (or `-`), name, start ns, end ns. Span
/// ids number the spans of all logs in order.
pub fn write_tsv(
    out: &mut impl Write,
    logs: &[Vec<Span>],
    max_spans: usize,
) -> std::io::Result<()> {
    writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
    let mut base = 0;
    for spans in logs {
        for (i, s) in spans.iter().enumerate().take(max_spans - base) {
            let parent = s
                .parent
                .map_or_else(|| "-".to_string(), |p| (base + p as usize).to_string());
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}",
                s.op,
                base + i,
                s.layer.span_name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        base = (base + spans.len()).min(max_spans);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, parent: Option<u32>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            parent,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, Layer::Op, 0, 100),
            span(0, Some(0), Layer::CatalogResolve, 10, 30),
            span(0, Some(0), Layer::DeltaSnapshot, 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, Layer::Op, 100, 200),
            // overlaps the next child by 10 ns
            span(0, Some(0), Layer::DeltaScan, 110, 150),
            span(0, Some(0), Layer::DeltaScan, 140, 160),
            // starts before the parent: only [100, 105) is inside it
            span(0, Some(0), Layer::CatalogGet, 90, 105),
            // ends after the parent: only [190, 200) is inside it
            span(0, Some(0), Layer::CatalogGet, 190, 230),
        ];
        let selfs = self_times(&spans);
        // covered: [100,105) + [110,160) + [190,200) = 5 + 50 + 10
        assert_eq!(selfs[0], 100 - 65);
        assert_eq!(&selfs[1..], &[40, 20, 15, 40]);
    }

    #[test]
    fn nested_spans_charge_each_level_once() {
        let spans = [
            span(0, None, Layer::Op, 0, 100),
            span(0, Some(0), Layer::CatalogResolve, 0, 80),
            span(0, Some(1), Layer::DeltaScan, 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
        let sum = summarize(&spans);
        assert_eq!(sum.module_ns, [20, 50, 0, 30]);
        assert_eq!(sum.max_conservation_error, 0.0);
    }

    #[test]
    fn summary_conserves_op_time_and_reports_per_op_means() {
        let spans = [
            span(0, None, Layer::Op, 0, 1_000),
            span(0, Some(0), Layer::CatalogResolve, 100, 400),
            span(0, Some(0), Layer::DeltaSnapshot, 400, 600),
            span(0, Some(0), Layer::DeltaScan, 600, 900),
            span(1, None, Layer::Op, 1_000, 3_000),
            span(1, Some(4), Layer::CatalogGet, 1_000, 2_000),
        ];
        let s = summarize(&spans);
        assert_eq!(s.ops, 2);
        assert_eq!(s.module_ns, [200 + 1_000, 300 + 1_000, 200, 300]);
        assert_eq!(s.module_ns.iter().sum::<u64>(), 3_000);
        assert_eq!(s.ops_over_tolerance, 0);
        assert!((s.module_us_per_op(Module::Catalog) - 0.65).abs() < 1e-12);
        let both = merge(&[s.clone(), s]);
        assert_eq!(both.ops, 4);
        assert_eq!(both.module_ns[0], 2_400);
    }

    #[test]
    fn span_log_records_ops_and_children() {
        let mut log = SpanLog::new(Instant::now(), 7, 4);
        log.begin_op();
        let v = log.call(Layer::CatalogGet, || 5);
        log.end_op();
        assert_eq!(v, 5);
        assert_eq!(log.spans.len(), 2);
        assert_eq!((log.spans[0].op, log.spans[0].parent), (7, None));
        assert_eq!((log.spans[1].op, log.spans[1].parent), (7, Some(0)));
        assert!(log.spans[0].start_ns <= log.spans[1].start_ns);
        assert!(log.spans[1].end_ns <= log.spans[0].end_ns);
        let s = summarize(&log.spans);
        assert_eq!(s.ops, 1);
        assert!(s.max_conservation_error < 1e-9);
        let mut out = Vec::new();
        let logs = [log.spans.clone(), log.spans];
        write_tsv(&mut out, &logs, 3).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header plus three spans: {text}");
        assert!(
            lines[2].starts_with("7\t1\t0\tcatalog.get_table\t"),
            "{text}"
        );
        assert!(
            lines[3].starts_with("7\t2\t-\top\t"),
            "second log's ids follow the first's: {text}"
        );
    }
}
