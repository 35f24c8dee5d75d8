//! The in-memory span recorder of the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into the
//! crates' public functions; nothing inside the crates is instrumented.
//! A span is (name, start, end, parent, request id); the request id is
//! the tick index, so every span of one service tick shares it. Spans
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval, in nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The tick (or instance, in the lower rungs) this span belongs to.
    pub request: u32,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part of each span its children cover.
    pub self_ns: u64,
}

/// The recorder. `Recorder::off()` records nothing, so the untraced run
/// pays one branch per call site.
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn on() -> Recorder {
        Recorder {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::on()
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses everything recorded until the matching
    /// [`exit`](Recorder::exit).
    pub fn enter(&mut self, name: &'static str, request: u32) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            request,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from two instants the caller already took
    /// (the driver times every call anyway; tracing adds only the push).
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, request: u32) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Times `f` as a leaf span and returns its result with the seconds
    /// it took.
    pub fn time<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.leaf(name, start, end, request);
        (out, (end - start).as_secs_f64())
    }

    /// Seconds the recorder needs to take down the spans it holds: the
    /// same sequence is recorded again into a fresh recorder. This is what
    /// tracing added to the run that produced them.
    pub fn replay_seconds(&self) -> f64 {
        let start = Instant::now();
        let mut copy = Recorder::on();
        for s in &self.spans {
            copy.leaf(s.name, start, start, s.request);
        }
        std::hint::black_box(&copy.spans);
        start.elapsed().as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        totals(&self.spans)
    }

    /// The trace as JSON: a name table, per-name totals, and every span
    /// as `[name index, start_ns, end_ns, parent or -1, request]`.
    pub fn to_json(&self) -> Json {
        let totals = self.totals();
        let names: Vec<&'static str> = totals.keys().copied().collect();
        let index = |name: &str| names.iter().position(|n| *n == name).expect("named") as f64;
        Json::obj([
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "totals",
                Json::Obj(
                    totals
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::Num(t.count as f64)),
                                    ("total_ns", Json::Num(t.total_ns as f64)),
                                    ("self_ns", Json::Num(t.self_ns as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "span_fields",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::nums(&[
                                index(s.name),
                                s.start_ns as f64,
                                s.end_ns as f64,
                                s.parent.map_or(-1.0, f64::from),
                                f64::from(s.request),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent, so a
/// child that outlives it cannot push the result below zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            let covered = end.saturating_sub(start);
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Groups spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("tick", 0, 100, None),
            // Two adjacent children, back to back.
            span("submit", 10, 30, Some(0)),
            span("step", 30, 80, Some(0)),
            // A grandchild: comes off `step`, not off `tick`.
            span("world", 40, 70, Some(2)),
            // A second root with a child that overhangs it.
            span("tick", 100, 150, None),
            span("drain", 140, 170, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30, 40, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["tick"],
            Total {
                count: 2,
                total_ns: 150,
                self_ns: 70
            }
        );
        assert_eq!(t["step"].self_ns, 20);
        assert_eq!(t["world"].total_ns, 30);
    }

    #[test]
    fn recorder_nests_by_enter_and_exit_and_off_records_nothing() {
        let mut r = Recorder::on();
        r.enter("outer", 7);
        let a = Instant::now();
        let b = Instant::now();
        r.leaf("inner", a, b, 7);
        r.enter("mid", 7);
        r.exit();
        r.exit();
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(r.replay_seconds() > 0.0);
        let doc = r.to_json();
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );

        let mut off = Recorder::off();
        off.enter("outer", 0);
        off.leaf("inner", a, b, 0);
        let ((), secs) = off.time("timed", 0, || ());
        off.exit();
        assert!(off.spans().is_empty() && secs >= 0.0);
    }
}
