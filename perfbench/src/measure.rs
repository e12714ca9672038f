//! Statistics over timed samples and the self-time accounting of traced
//! spans.

use pcc_probe::SpanRecord;
use std::collections::BTreeMap;
use std::time::Duration;

/// CPU time the whole process has run so far, summed over all its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The benchmark's thread drives every public call and the codec's
/// executor runs the other ranges of each parallel section on scoped
/// worker threads; this clock counts both, so moving work between the
/// caller and a worker does not read as a gain. Unlike wall-clock time it
/// leaves out time the hypervisor gave to other guests (steal), which on a
/// shared VM moves wall-clock medians by a third between runs of the same
/// code.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, and the clock id is a constant
    // Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads the process CPU clock through Linux's clock_gettime");

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Number of samples strictly above the `q` percentile.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

/// Median of `samples` (nearest rank, lower middle); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Where a span sits: the benchmark call span it ran under (`"-"` for
/// spans on a lane with no call span, i.e. executor workers), and its
/// own stage.
pub type RowKey = (&'static str, &'static str);

/// Time booked against one row.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Duration minus nested spans.
    pub self_ns: u64,
    /// Whole span durations.
    pub total_ns: u64,
    /// Spans seen.
    pub calls: u64,
}

impl Row {
    fn add(&mut self, self_ns: u64, total_ns: u64) {
        self.self_ns += self_ns;
        self.total_ns += total_ns;
        self.calls += 1;
    }
}

/// Self time per (call, stage) accumulated over traced frames.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Rows of the frame lane.
    pub rows: BTreeMap<RowKey, Row>,
    /// Rows of other lanes (the codec's executor workers), by stage; they
    /// overlap the frame lane's time and are not part of its sum.
    pub off_lane: BTreeMap<&'static str, Row>,
    /// Total duration of the root spans (the traced frame time).
    pub frame_ns: u64,
    /// Root spans seen.
    pub frames: u64,
}

impl Breakdown {
    /// Folds one drained batch of spans in. `root` names the span that
    /// brackets one frame (its lane is the frame lane); `calls` are the
    /// benchmark's spans around public calls, which label their
    /// descendants. A span's self time is its duration minus the part of
    /// it covered by spans nested inside it on the same lane; the root's
    /// self time is the unattributed time.
    pub fn add(&mut self, spans: &[SpanRecord], root: &str, calls: &[&str]) {
        let Some(frame_lane) = spans.iter().find(|s| s.stage == root).map(|s| s.lane) else {
            return;
        };
        let mut lanes: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            lanes.entry(s.lane).or_default().push(s);
        }
        for (lane, mut list) in lanes {
            // Parents first: earlier start, then longer duration.
            list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
            let selfs = self_times(&list);
            // The call label of each span: itself if it is a call span,
            // else its nearest call ancestor.
            let mut stack: Vec<(u64, &'static str)> = Vec::new();
            for (s, self_ns) in list.iter().zip(selfs) {
                while stack.last().is_some_and(|&(end, _)| end <= s.start_ns) {
                    stack.pop();
                }
                let inherited = stack.last().map_or("-", |&(_, c)| c);
                let call = if calls.contains(&s.stage) {
                    s.stage
                } else {
                    inherited
                };
                stack.push((s.start_ns + s.dur_ns, call));
                if lane == frame_lane {
                    self.rows
                        .entry((call, s.stage))
                        .or_default()
                        .add(self_ns, s.dur_ns);
                    if s.stage == root {
                        self.frame_ns += s.dur_ns;
                        self.frames += 1;
                    }
                } else {
                    self.off_lane
                        .entry(s.stage)
                        .or_default()
                        .add(self_ns, s.dur_ns);
                }
            }
        }
    }

    /// Self nanoseconds summed over every row of `stage`, optionally only
    /// under call span `call`.
    pub fn self_ns(&self, stage: &str, call: Option<&str>) -> u64 {
        self.rows
            .iter()
            .filter(|((c, s), _)| *s == stage && call.is_none_or(|want| *c == want))
            .map(|(_, r)| r.self_ns)
            .sum()
    }

    /// Whole durations of `stage`'s spans on the frame lane.
    pub fn total_ns(&self, stage: &str) -> u64 {
        self.rows
            .iter()
            .filter(|((_, s), _)| *s == stage)
            .map(|(_, r)| r.total_ns)
            .sum()
    }

    /// Spans recorded for `stage` on the frame lane.
    pub fn calls(&self, stage: &str) -> u64 {
        self.rows
            .iter()
            .filter(|((_, s), _)| *s == stage)
            .map(|(_, r)| r.calls)
            .sum()
    }

    /// Self time of the root spans: frame time covered by no other span.
    pub fn unattributed_ns(&self, root: &str) -> u64 {
        self.self_ns(root, None)
    }
}

/// Self time of each span of one lane, given in parent-first order:
/// duration minus the union of its direct children's intervals (children
/// are clipped to the parent, since two clock reads per span can put a
/// child's end a few nanoseconds past its parent's).
pub fn self_times(spans: &[&SpanRecord]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if t.start_ns + t.dur_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            let p = spans[parent];
            let covered = (s.start_ns + s.dur_ns).min(p.start_ns + p.dur_ns) - s.start_ns;
            selfs[parent] = selfs[parent].saturating_sub(covered);
        }
        stack.push(i);
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: &'static str, start_ns: u64, dur_ns: u64, lane: u32) -> SpanRecord {
        SpanRecord {
            stage,
            start_ns,
            dur_ns,
            lane,
            bytes: 0,
        }
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_values() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        // rank = ceil(q * n): p50 of 1..=20 is the 10th value, p95 the 19th.
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(percentile(&samples, 0.95), Some(19.0));
        assert_eq!(percentile(&samples, 1.0), Some(20.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(samples_beyond(&samples, 0.95), 1);
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 0.5), Some(3.0));
        assert_eq!(percentile(&shuffled, 0.95), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 200 samples leave exactly ten above p95.
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(samples_beyond(&many, 0.95), 10);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ call [10,90) ⊃ a [20,50) ⊃ b [25,35); c [60,80)
        let spans = [
            span("root", 0, 100, 0),
            span("call", 10, 80, 0),
            span("a", 20, 30, 0),
            span("b", 25, 10, 0),
            span("c", 60, 20, 0),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(self_times(&refs), vec![20, 30, 20, 10, 20]);
        // The self times of one lane sum to the root's duration.
        assert_eq!(self_times(&refs).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_overhanging_their_parent_are_clipped() {
        let spans = [span("p", 0, 50, 0), span("c", 40, 12, 0)];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(self_times(&refs), vec![40, 12]);
    }

    #[test]
    fn breakdown_labels_rows_by_call_and_keeps_worker_lanes_apart() {
        let spans = [
            span("root", 0, 100, 0),
            span("send", 0, 60, 0),
            span("codec", 5, 40, 0),
            span("recv", 60, 30, 0),
            span("codec", 65, 20, 0),
            span("codec", 10, 30, 1), // a worker thread, overlapping lane 0
        ];
        let mut b = Breakdown::default();
        b.add(&spans, "root", &["send", "recv"]);
        assert_eq!(b.frames, 1);
        assert_eq!(b.frame_ns, 100);
        let row = |self_ns, total_ns| Row {
            self_ns,
            total_ns,
            calls: 1,
        };
        assert_eq!(b.rows[&("send", "codec")], row(40, 40));
        assert_eq!(b.rows[&("recv", "codec")], row(20, 20));
        assert_eq!(b.rows[&("send", "send")], row(20, 60));
        assert_eq!(b.rows[&("recv", "recv")], row(10, 30));
        assert_eq!(b.unattributed_ns("root"), 10);
        assert_eq!(b.self_ns("codec", None), 60);
        assert_eq!(b.self_ns("codec", Some("recv")), 20);
        assert_eq!(b.total_ns("send"), 60);
        assert_eq!(b.calls("codec"), 2);
        assert_eq!(b.off_lane[&"codec"], row(30, 30));
        // Frame-lane self times sum to the frame time.
        assert_eq!(b.rows.values().map(|r| r.self_ns).sum::<u64>(), b.frame_ns);
    }
}
