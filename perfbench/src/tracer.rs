//! In-memory span recorder used by the traced runs.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! workspace layer.  Every span has a name (the per-layer metric it feeds),
//! a unit id (the function or request it belongs to), a start, a duration
//! and the span that was open when it started.  Busy and self time are
//! aggregated per name as spans close; the raw span log is capped and
//! written out as a chrome://tracing file when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept in the log; aggregation continues past the cap.
const LOG_CAP: usize = 100_000;

struct Span {
    name: &'static str,
    unit: u64,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    log_index: Option<usize>,
}

/// Busy time and self time of one span name, summed over its spans.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    log: Vec<Span>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Totals>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            log: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, unit: u64) {
        let start = Instant::now();
        let log_index = (self.log.len() < LOG_CAP).then(|| {
            self.log.push(Span {
                name,
                unit,
                start_ns: nanos(start.duration_since(self.epoch)),
                dur_ns: 0,
                parent: self.stack.last().and_then(|o| o.log_index),
            });
            self.log.len() - 1
        });
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            log_index,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        let open = self.stack.pop().expect("close without a matching open");
        let dur_ns = nanos(open.start.elapsed());
        if let Some(i) = open.log_index {
            self.log[i].dur_ns = dur_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let t = self.totals.entry(open.name).or_default();
        t.calls += 1;
        t.busy_ns += dur_ns;
        t.self_ns += dur_ns.saturating_sub(open.child_ns);
        dur_ns
    }

    /// Runs `f` inside a span and collects the workspace's pass counters
    /// it bumps.
    pub fn stage<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, unit);
        let (r, counters) = coalesce_stats::collect(f);
        self.close();
        for &(key, value) in counters.entries() {
            self.count(key, value);
        }
        r
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        self.totals(name).busy_ns as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The span log in chrome "trace event format".
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"unit\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.unit
            ));
        }
        out.push_str("]}\n");
        out
    }
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
