//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program (a spawned command, a protocol round trip, a public library
//! function), never inside it. Each span carries its parent (the span open
//! when it started) and a request id shared by every span of one
//! campaign, and the whole list is written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Debug)]
struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for subsequent spans.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Runs `f` inside a span named `name` belonging to campaign `request`.
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let index = r.spans.len() - 1;
        r.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[index].end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Per span name: (count, mean duration in milliseconds).
pub fn summary() -> BTreeMap<&'static str, (usize, f64)> {
    RECORDER.with(|r| {
        let mut sums: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &r.borrow().spans {
            let entry = sums.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        for entry in sums.values_mut() {
            entry.1 /= entry.0 as f64;
        }
        sums
    })
}

/// Every recorded span as JSON.
pub fn to_json() -> Value {
    RECORDER.with(|r| {
        Value::Array(
            r.borrow()
                .spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("request".into(), Value::UInt(s.request)),
                    ])
                })
                .collect(),
        )
    })
}
