//! Outside-in span tracing: the benchmark's own code opens a span around
//! each call into a layer's public API, so the program itself carries no
//! instrumentation.
//!
//! Every root span is one op (or one reference slice); its spans share an
//! op id. When a root closes, each span's self time (its duration minus
//! its direct children's) is folded into per-name totals, and the op's
//! spans are appended to an in-memory log — up to a cap, so a traced run
//! of millions of ops keeps bounded memory — that is written out when the
//! run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span sink used by the workload loops. [`NoTrace`] compiles to nothing,
/// so the untraced run executes exactly the code the traced run wraps.
pub trait Tracer {
    /// Opens a span as a child of the innermost open one.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Closes the span `begin` returned.
    fn end(&mut self, id: usize);
    /// A calibration window closed: scale what was recorded since the
    /// previous window by its op class's entry in `factors`.
    fn window_closed(&mut self, _factors: &[f64]) {}
}

/// The untraced run's tracer.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn end(&mut self, _id: usize) {}
}

/// One recorded span. `parent` indexes the op's span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span of one op, into `out`: its duration minus
/// the durations of its direct children. Over a well-nested tree the
/// self times sum to the root's duration.
pub fn self_times(spans: &[Span], out: &mut Vec<u64>) {
    out.clear();
    out.extend(spans.iter().map(Span::duration));
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration());
        }
    }
}

/// Calibrated totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

/// In-memory span recorder.
pub struct Recorder {
    /// The op class (index into a window's factors) of a span name.
    class_of: fn(&str) -> usize,
    epoch: Instant,
    next_op: u64,
    open: Vec<usize>,
    cur: Vec<Span>,
    selfs: Vec<u64>,
    /// Raw (unscaled) totals since the last calibration window closed; a
    /// short list, since an op has a handful of span names.
    pending: Vec<(&'static str, Agg)>,
    totals: BTreeMap<&'static str, Agg>,
    log: Vec<Span>,
    log_cap: usize,
}

impl Recorder {
    pub fn new(log_cap: usize, class_of: fn(&str) -> usize) -> Recorder {
        Recorder {
            class_of,
            epoch: Instant::now(),
            next_op: 0,
            open: Vec::with_capacity(8),
            cur: Vec::with_capacity(8),
            selfs: Vec::with_capacity(8),
            pending: Vec::new(),
            totals: BTreeMap::new(),
            log: Vec::with_capacity(log_cap),
            log_cap,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn close_op(&mut self) {
        self_times(&self.cur, &mut self.selfs);
        for (span, &self_ns) in self.cur.iter().zip(&self.selfs) {
            let i = match self.pending.iter().position(|(n, _)| *n == span.name) {
                Some(i) => i,
                None => {
                    self.pending.push((span.name, Agg::default()));
                    self.pending.len() - 1
                }
            };
            let agg = &mut self.pending[i].1;
            agg.count += 1;
            agg.total_ns += span.duration() as f64;
            agg.self_ns += self_ns as f64;
        }
        if self.log.len() + self.cur.len() <= self.log_cap {
            self.log.extend_from_slice(&self.cur);
        }
        self.cur.clear();
        self.next_op += 1;
    }

    /// Calibrated totals by span name. Call after the clock's last
    /// window has closed.
    pub fn totals(&self) -> &BTreeMap<&'static str, Agg> {
        &self.totals
    }

    /// Adds another recorder's totals (one recorder per client thread).
    pub fn merge_totals(&mut self, other: &Recorder) {
        for (name, a) in &other.totals {
            let t = self.totals.entry(name).or_default();
            t.count += a.count;
            t.total_ns += a.total_ns;
            t.self_ns += a.self_ns;
        }
    }

    /// Writes the logged spans as tab-separated
    /// `op idx parent name start_ns end_ns` lines (`parent` is `-` for a
    /// root; `idx` and `parent` index the op's spans).
    pub fn write_log(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "op\tidx\tparent\tname\tstart_ns\tend_ns")?;
        let mut first = 0;
        for (i, s) in self.log.iter().enumerate() {
            if s.parent.is_none() {
                first = i;
            }
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                i - first,
                parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Tracer for Recorder {
    fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.cur.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.cur.push(Span {
            name,
            op: self.next_op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    fn end(&mut self, id: usize) {
        self.cur[id].end_ns = self.now_ns();
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        if self.open.is_empty() {
            self.close_op();
        }
    }

    fn window_closed(&mut self, factors: &[f64]) {
        for (name, a) in self.pending.drain(..) {
            let factor = factors[(self.class_of)(name)];
            let t = self.totals.entry(name).or_default();
            t.count += a.count;
            t.total_ns += a.total_ns * factor;
            t.self_ns += a.self_ns * factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// The copy op's shape: a trampoline root with two acquires, the
    /// access loop and two releases under it, leaving gaps of self time.
    fn copy_tree() -> Vec<Span> {
        vec![
            span("jni.call_native", None, 0, 1000),
            span("jni.acquire", Some(0), 50, 150),
            span("jni.acquire", Some(0), 160, 250),
            span("mte-sim.access", Some(0), 260, 800),
            span("jni.release", Some(0), 810, 880),
            span("jni.release", Some(0), 890, 960),
        ]
    }

    #[test]
    fn self_times_partition_the_root() {
        let tree = copy_tree();
        let mut st = Vec::new();
        self_times(&tree, &mut st);
        assert_eq!(
            st,
            vec![1000 - 100 - 90 - 540 - 70 - 70, 100, 90, 540, 70, 70]
        );
        assert_eq!(st.iter().sum::<u64>(), tree[0].duration());
    }

    #[test]
    fn nested_grandchildren_only_subtract_from_their_parent() {
        let tree = vec![
            span("root", None, 0, 100),
            span("child", Some(0), 10, 70),
            span("grandchild", Some(1), 20, 50),
        ];
        let mut st = Vec::new();
        self_times(&tree, &mut st);
        assert_eq!(st, vec![40, 30, 30]);
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_folds_ops_and_scales_by_window_factor() {
        let mut r = Recorder::new(4, |name| usize::from(name == "child"));
        for _ in 0..2 {
            let root = r.begin("root");
            let child = r.begin("child");
            r.end(child);
            r.end(root);
        }
        r.window_closed(&[2.0, 2.0]);
        let t = r.totals();
        assert_eq!(t["root"].count, 2);
        assert_eq!(t["child"].count, 2);
        // Self times still partition the roots after scaling.
        let sum_self = t["root"].self_ns + t["child"].self_ns;
        assert!((sum_self - t["root"].total_ns).abs() < 1e-6);
        // Log cap: two ops of two spans fit exactly; op ids are distinct.
        let mut out = Vec::new();
        r.write_log(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("0\t0\t-\troot"));
        assert!(lines[4].starts_with("1\t1\t0\tchild"));
    }
}
