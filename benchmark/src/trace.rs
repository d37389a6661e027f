//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer's public function: a name, its
//! parent span, the input (program) it served, the pass it ran in, its
//! start and duration, and the counts the call returned. Spans stay in
//! memory and are written out as JSON lines when the run ends. With
//! tracing off every call is a no-op, so the untraced end-to-end passes
//! carry no recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in the recorder (meaningless when tracing is off).
pub type SpanId = usize;

/// Pass number of work done during set-up (input generation, closing
/// the programs to be explored, the warm-up).
pub const SETUP_PASS: u32 = 0;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function the span covers, e.g. `verisoft.explore`.
    pub name: &'static str,
    /// The span this call ran inside.
    pub parent: Option<SpanId>,
    /// The workload input the call served; spans of one program share it.
    pub program: usize,
    /// [`SETUP_PASS`] or the 1-based traced pass.
    pub pass: u32,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// Wall time of the call.
    pub dur: Duration,
    /// Counts the call reported (states, arcs, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// The recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    program: usize,
    pass: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            program: 0,
            pass: SETUP_PASS,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Attribute the following spans to workload input `program`.
    pub fn set_program(&mut self, program: usize) {
        self.program = program;
    }

    /// Attribute the following spans to `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            program: self.program,
            pass: self.pass,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// End span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if self.on {
            let s = &mut self.spans[id];
            s.dur = self.epoch.elapsed() - s.start;
        }
    }

    /// Attach a count to span `id`.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: u64) {
        if self.on {
            self.spans[id].counts.push((name, value));
        }
    }

    /// Record a finished child of `parent` whose duration was measured by
    /// the layer itself (a `PassMetrics` row). Such children ran one after
    /// another, so each starts where the previous sibling ended.
    pub fn child(&mut self, parent: SpanId, name: &'static str, dur: Duration) -> SpanId {
        if !self.on {
            return 0;
        }
        let start = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.parent.is_some())
            .find(|s| s.parent == Some(parent))
            .map_or(self.spans[parent].start, |s| s.start + s.dur);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            program: self.program,
            pass: self.pass,
            start,
            dur,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(|s| s.dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur);
            }
        }
        out
    }

    /// Per pass, the summed duration and self time of every span name and
    /// the summed counts.
    pub fn totals(&self) -> BTreeMap<u32, PassTotals> {
        let mut out: BTreeMap<u32, PassTotals> = BTreeMap::new();
        for (s, self_time) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.pass).or_default();
            let e = t.time.entry(s.name).or_default();
            e.0 += s.dur;
            e.1 += self_time;
            for &(k, v) in &s.counts {
                *t.counts.entry(k).or_default() += v;
            }
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let self_times = self.self_times();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"program\":{},\"pass\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"counts\":{{",
                s.program,
                s.pass,
                s.name,
                s.start.as_nanos(),
                s.dur.as_nanos(),
                self_times[id].as_nanos()
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Span totals of one pass.
#[derive(Debug, Default, Clone)]
pub struct PassTotals {
    /// Per span name: (summed duration, summed self time).
    pub time: BTreeMap<&'static str, (Duration, Duration)>,
    /// Per count name: the sum over the pass's spans.
    pub counts: BTreeMap<&'static str, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let p = tr.open("closer.close", None);
        std::thread::sleep(Duration::from_millis(2));
        tr.close(p);
        let a = tr.child(p, "minic.parse", Duration::from_micros(300));
        let b = tr.child(p, "dataflow.defuse", Duration::from_micros(500));
        assert_eq!(tr.spans()[b].start, tr.spans()[a].start + tr.spans()[a].dur);
        assert_eq!(
            tr.self_times()[p],
            tr.spans()[p].dur - Duration::from_micros(800)
        );
        let totals = tr.totals();
        assert_eq!(
            totals[&SETUP_PASS].time["minic.parse"].0,
            Duration::from_micros(300)
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.open("verisoft.explore", None);
        tr.count(s, "states", 3);
        tr.close(s);
        assert!(tr.spans().is_empty());
    }
}
