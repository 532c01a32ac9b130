//! `serve_mixed`: a seeded mixed request trace served by the engine of
//! `coalesce-serve`, first in the engine's own closed loop on this thread
//! (the end-to-end figures), then through an in-process `Server` with one
//! worker, fed by this thread, which also collects the replies.
//!
//! The server half alternates an open loop at a fixed rate, each request
//! timed from when it was due, with a closed loop that keeps the queue
//! full.  Every reply must be `ok`, must not be flagged `verified: false`,
//! and must be byte-identical to the serial replay's reply for the same
//! line.

use crate::checks::{engine_config, reference_ok, reply_ok};
use crate::stats::{calibration_ms, host_factor, mean, median, ms, percentile, Calibration};
use crate::tracer::{nanos, Tracer};
use crate::Report;
use coalesce_gen::trace::{trace, TraceParams, TraceRequest};
use coalesce_graph::format::{from_challenge, from_dimacs};
use coalesce_serve::{parse_request, Engine, RequestKind, Response, Rung, Server, ServerConfig};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct request lines in the trace; both loops cycle through it.
const TRACE_REQUESTS: usize = 2000;
const SETUP_REPEATS: usize = 3;
/// Open-loop arrival rate: about 20% of one worker's serial capacity (a
/// serial replay served 1 200 to 2 700 requests/s on one 2-vCPU host,
/// varying with the load other tenants put on it).  At 1000 and at 600
/// requests/s, the slow spells pushed the worker near saturation: p50
/// moved by up to 25 times between runs and requests were refused.
const OPEN_LOOP_RATE: f64 = 300.0;
/// The server half alternates open-loop and closed-loop segments, so that
/// a slow spell of the host falls on a few segments of each kind, not on
/// one whole phase.
const SEGMENTS: u32 = 5;
/// Share of `--seconds` spent in the engine's serial closed loop, which
/// gives the end-to-end figures; the rest goes to the server segments.
const SERIAL_SHARE: f64 = 0.5;
/// Share of each segment pair spent in the open loop.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Requests kept in flight by the closed loop (below the queue depth, so
/// the closed loop is never refused).
const CLOSED_LOOP_WINDOW: usize = 32;
/// How long to wait for the last replies after a loop ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

const KINDS: [&str; 4] = ["dimacs", "challenge", "cfg", "module_slice"];

const LAYERS: &[&str] = &[
    "graph.parse_ms",
    "serve.parse_ms",
    "serve.encode_ms",
    "serve.service_dimacs_ms",
    "serve.service_challenge_ms",
    "serve.service_cfg_ms",
    "serve.service_module_slice_ms",
    "serve.closed_loop_per_s",
    "serve.open_loop_p50_ms",
    "serve.open_loop_p99_ms",
    "serve.open_loop_samples",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.rung_exact_frac",
    "serve.rung_chordal_irc_frac",
    "serve.rung_greedy_frac",
    "serve.overloaded",
    "serve.unverified_frac",
    "serve.repeat_share",
    "verify.check_ms",
    "verify.violations",
    "bench.gen_late_p99_ms",
    "bench.trace_overhead_frac",
    "fail_frac",
    "degraded_frac",
    "latency_p99_ms",
    "latency_samples",
    "raw.throughput_per_s",
    "raw.latency_p50_ms",
    "raw.setup_s",
    "bench.calibration_ms",
    "input.kind_dimacs_frac",
    "input.kind_challenge_frac",
    "input.kind_cfg_frac",
    "input.kind_module_slice_frac",
];

fn serve_one(engine: &Engine, line: &str) -> Response {
    match parse_request(line) {
        Ok(req) => engine.execute(&req, Instant::now()),
        Err(e) => Response::from_request_error(e),
    }
}

/// The trace and its serial replay on a fresh engine: reference replies
/// and per-request service times.
struct Setup {
    requests: Vec<TraceRequest>,
    replies: Vec<Response>,
    texts: Vec<String>,
    service_ms: Vec<f64>,
}

/// Returns the set-up and the engine the serial replay warmed.
fn setup(seed: u64) -> (Setup, Engine) {
    let params = TraceParams {
        requests: TRACE_REQUESTS,
        expired_deadline_percent: 0,
        tiny_budget_percent: 5,
        ..TraceParams::default()
    };
    let requests = trace(&params, seed);
    let engine = Engine::new(engine_config());
    let mut replies = Vec::with_capacity(requests.len());
    let mut texts = Vec::with_capacity(requests.len());
    let mut service_ms = Vec::with_capacity(requests.len());
    for r in &requests {
        let t = Instant::now();
        let reply = serve_one(&engine, &r.line);
        let text = reply.to_json().to_compact_string();
        service_ms.push(ms(t.elapsed()));
        replies.push(reply);
        texts.push(text);
    }
    let setup = Setup {
        requests,
        replies,
        texts,
        service_ms,
    };
    (setup, engine)
}

fn reply_id(reply: &Response) -> Option<u64> {
    match reply {
        Response::Ok { id, .. } => Some(*id),
        Response::Error { id, .. }
        | Response::Overloaded { id, .. }
        | Response::InternalError { id, .. } => *id,
    }
}

/// Reply bookkeeping shared by both loops.
struct Collector<'a> {
    setup: &'a Setup,
    acceptable: Vec<bool>,
    received: u64,
    failed: u64,
    overloaded: u64,
    check: Duration,
    problems: Vec<String>,
}

impl Collector<'_> {
    /// Encodes and checks one reply; returns its trace index when known.
    fn take(&mut self, reply: &Response) -> Option<usize> {
        let text = reply.to_json().to_compact_string();
        let index = reply_id(reply)
            .and_then(|id| usize::try_from(id).ok())
            .and_then(|id| id.checked_sub(1))
            .filter(|&i| i < self.setup.texts.len());
        if matches!(reply, Response::Overloaded { .. }) {
            self.overloaded += 1;
        }
        self.check(index, &text);
        index
    }

    /// Checks one encoded reply against the serial replay's reply for
    /// trace line `index`.
    fn check(&mut self, index: Option<usize>, text: &str) {
        self.received += 1;
        let t = Instant::now();
        let ok = index.is_some_and(|i| self.acceptable[i] && reply_ok(text, &self.setup.texts[i]));
        self.check += t.elapsed();
        if !ok {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems
                    .push(format!("reply failed its check: {text}"));
            }
        }
    }
}

/// The load generator: one thread submits the trace's lines in order
/// (cycling) and collects the replies.
struct Load<'s, 'a> {
    server: &'s Server,
    col: Collector<'a>,
    rx: Receiver<Response>,
    tx: Sender<Response>,
    next: usize,
    sent: u64,
    /// Due times of the open-loop requests in flight, by trace index.
    due_of: HashMap<usize, VecDeque<Instant>>,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Replies per second of each closed-loop segment.
    segment_throughput: Vec<f64>,
}

impl Load<'_, '_> {
    fn submit(&mut self) -> usize {
        let index = self.next % self.col.setup.requests.len();
        self.next += 1;
        self.sent += 1;
        self.server
            .try_submit(self.col.setup.requests[index].line.clone(), &self.tx);
        index
    }

    /// Checks one reply and, for an open-loop request, times it from when
    /// it was due.
    fn record(&mut self, reply: &Response) {
        let Some(i) = self.col.take(reply) else {
            return;
        };
        let now = Instant::now();
        if let Some(due) = self.due_of.get_mut(&i).and_then(VecDeque::pop_front) {
            let latency = ms(now - due);
            self.latency_ms.push(latency);
            self.queue_wait_ms
                .push(latency - self.col.setup.service_ms[i]);
        }
    }

    /// Sends requests at `OPEN_LOOP_RATE` for `seconds`, collecting replies
    /// while it waits for each due time, then waits for the stragglers.
    fn open_segment(&mut self, seconds: f64) {
        let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
        let total = (seconds * OPEN_LOOP_RATE).round().max(1.0) as u32;
        let start = Instant::now();
        for i in 0..total {
            let due = start + period * i;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match self.rx.recv_timeout(due - now) {
                    Ok(reply) => self.record(&reply),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => unreachable!("we hold a sender"),
                }
            }
            self.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let index = self.submit();
            self.due_of.entry(index).or_default().push_back(due);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.due_of.values().any(|q| !q.is_empty()) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.rx.recv_timeout(left) {
                Ok(reply) => self.record(&reply),
                Err(_) => break,
            }
        }
        self.due_of.retain(|_, q| !q.is_empty());
    }

    /// Keeps `CLOSED_LOOP_WINDOW` requests in flight for `seconds` and
    /// records the replies completed per second.
    fn closed_segment(&mut self, seconds: f64) {
        let mut outstanding = 0usize;
        let mut completed = 0u64;
        let start = Instant::now();
        let elapsed = loop {
            while outstanding < CLOSED_LOOP_WINDOW {
                self.submit();
                outstanding += 1;
            }
            match self.rx.recv_timeout(DRAIN_TIMEOUT) {
                Ok(reply) => {
                    self.col.take(&reply);
                    outstanding -= 1;
                    completed += 1;
                }
                Err(_) => break start.elapsed().as_secs_f64(),
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= seconds {
                break elapsed;
            }
        };
        self.segment_throughput.push(completed as f64 / elapsed);
        while outstanding > 0 {
            match self.rx.recv_timeout(DRAIN_TIMEOUT) {
                Ok(reply) => {
                    self.col.take(&reply);
                    outstanding -= 1;
                }
                Err(_) => break,
            }
        }
    }
}

/// The engine's own closed loop on this thread: the trace's lines in
/// order, one at a time, each parsed, executed and encoded as a worker
/// and its client would, and checked outside the timed part.  Each
/// request's time is scaled by the calibration kernel timed around it.
struct Serial {
    latency_ms: Vec<f64>,
    scaled_latency_ms: Vec<f64>,
    /// Requests per busy second of each one-second window, raw and scaled.
    raw_throughput: Vec<f64>,
    throughput: Vec<f64>,
    kernel_ms: Vec<f64>,
    sent: u64,
}

fn serial_loop(engine: &Engine, col: &mut Collector<'_>, seconds: f64) -> Serial {
    let n = col.setup.requests.len();
    let mut calibration = Calibration::new();
    let mut calls = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        calibration.tick();
        let i = calls.len() % n;
        let t = Instant::now();
        let reply = serve_one(engine, &col.setup.requests[i].line);
        let text = reply.to_json().to_compact_string();
        calls.push((t, t.elapsed()));
        col.check(Some(i), &text);
    }
    let mut out = Serial {
        latency_ms: Vec::new(),
        scaled_latency_ms: Vec::new(),
        raw_throughput: Vec::new(),
        throughput: Vec::new(),
        kernel_ms: calibration.kernel_ms().collect(),
        sent: calls.len() as u64,
    };
    let mut windows: Vec<(u32, f64, f64)> = Vec::new();
    for &(t, dt) in &calls {
        let (raw, scaled) = (ms(dt), calibration.scale(t, ms(dt)));
        out.latency_ms.push(raw);
        out.scaled_latency_ms.push(scaled);
        let w = t.duration_since(start).as_secs() as usize;
        if windows.len() <= w {
            windows.resize(w + 1, (0, 0.0, 0.0));
        }
        windows[w].0 += 1;
        windows[w].1 += raw;
        windows[w].2 += scaled;
    }
    for &(count, raw_ms, scaled_ms) in windows.iter().filter(|w| w.0 > 0) {
        out.raw_throughput.push(f64::from(count) / raw_ms * 1e3);
        out.throughput.push(f64::from(count) / scaled_ms * 1e3);
    }
    out
}

/// The serial replay again, one span per layer call, interleaved line by
/// line with an untraced replay on a second fresh engine (alternating which
/// goes first), so that both see the same host conditions.  Returns the
/// traced and untraced seconds; the traced time leaves out the
/// instance-parse spans, which the untraced replay does not do.
fn traced_replay(setup: &Setup, tr: &mut Tracer, report: &mut Report) -> (f64, f64) {
    let traced_engine = Engine::new(engine_config());
    let untraced_engine = Engine::new(engine_config());
    let (mut traced_ns, mut untraced_ns, mut parse_ns) = (0u64, 0u64, 0u64);
    for (i, r) in setup.requests.iter().enumerate() {
        let untraced = |ns: &mut u64| {
            let t = Instant::now();
            let reply = serve_one(&untraced_engine, &r.line);
            std::hint::black_box(reply.to_json().to_compact_string());
            *ns += nanos(t.elapsed());
        };
        if i % 2 == 0 {
            untraced(&mut untraced_ns);
        }
        let unit = i as u64;
        tr.open("serve.request", unit);
        let reply = match tr.stage("serve.parse", unit, || parse_request(&r.line)) {
            Ok(req) => {
                let text = match &req.kind {
                    RequestKind::Dimacs { text } | RequestKind::Challenge { text } => Some(text),
                    _ => None,
                };
                if let Some(text) = text {
                    tr.open("graph.parse", unit);
                    std::hint::black_box(if r.kind == "dimacs" {
                        from_dimacs(text).is_ok()
                    } else {
                        from_challenge(text).is_ok()
                    });
                    parse_ns += tr.close();
                }
                let span = match r.kind {
                    "dimacs" => "serve.execute.dimacs",
                    "challenge" => "serve.execute.challenge",
                    "cfg" => "serve.execute.cfg",
                    _ => "serve.execute.module_slice",
                };
                tr.stage(span, unit, || traced_engine.execute(&req, Instant::now()))
            }
            Err(e) => Response::from_request_error(e),
        };
        let text = tr.stage("serve.encode", unit, || reply.to_json().to_compact_string());
        traced_ns += tr.close();
        if i % 2 == 1 {
            untraced(&mut untraced_ns);
        }
        if text != setup.texts[i] {
            report.fail(format!(
                "traced replay of line {} differs from the serial replay",
                i + 1
            ));
        }
    }
    (
        traced_ns.saturating_sub(parse_ns) as f64 / 1e9,
        untraced_ns as f64 / 1e9,
    )
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> (Report, Option<Tracer>) {
    let mut report = Report {
        layers: LAYERS,
        ..Report::default()
    };
    let mut setup_s = Vec::new();
    let mut setup_kernel = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setup_kernel.push(calibration_ms());
        let t = Instant::now();
        let s = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        runs.push(s);
    }
    report.set(
        "setup_s",
        median(&setup_s) / host_factor(&setup_kernel),
        "s",
    );
    report.set("raw.setup_s", median(&setup_s), "s");
    let (setup, engine) = runs.pop().expect("at least one set-up");
    for (other, _) in &runs {
        if other.texts != setup.texts {
            report.fail("two serial replays of the trace gave different replies".to_string());
        }
    }
    drop(runs);

    // Input descriptors and the reference replies' rung mix.
    let n = setup.requests.len();
    for (metric, kind) in [
        ("input.kind_dimacs_frac", KINDS[0]),
        ("input.kind_challenge_frac", KINDS[1]),
        ("input.kind_cfg_frac", KINDS[2]),
        ("input.kind_module_slice_frac", KINDS[3]),
    ] {
        let count = setup.requests.iter().filter(|r| r.kind == kind).count();
        report.set(metric, count as f64 / n as f64, "ratio");
    }
    let mut seen = BTreeSet::new();
    let repeats = setup
        .requests
        .iter()
        .filter(|r| {
            let key =
                parse_request(&r.line).map_or_else(|_| r.line.clone(), |q| format!("{:?}", q.kind));
            !seen.insert(key)
        })
        .count();
    report.set("serve.repeat_share", repeats as f64 / n as f64, "ratio");
    let acceptable: Vec<bool> = setup.replies.iter().map(reference_ok).collect();
    let oks: Vec<&Response> = setup
        .replies
        .iter()
        .filter(|r| matches!(r, Response::Ok { .. }))
        .collect();
    let share = |pred: &dyn Fn(&Response) -> bool| {
        oks.iter().filter(|r| pred(r)).count() as f64 / oks.len().max(1) as f64
    };
    for (metric, rung) in [
        ("serve.rung_exact_frac", Rung::Exact),
        ("serve.rung_chordal_irc_frac", Rung::ChordalIrc),
        ("serve.rung_greedy_frac", Rung::Greedy),
    ] {
        report.set(
            metric,
            share(&|r| matches!(r, Response::Ok { rung: x, .. } if *x == rung)),
            "ratio",
        );
    }
    report.set(
        "degraded_frac",
        share(&|r| matches!(r, Response::Ok { degraded: true, .. })),
        "ratio",
    );
    report.set(
        "serve.unverified_frac",
        share(&|r| matches!(r, Response::Ok { verified: None, .. })),
        "ratio",
    );
    for (metric, kind) in [
        ("serve.service_dimacs_ms", KINDS[0]),
        ("serve.service_challenge_ms", KINDS[1]),
        ("serve.service_cfg_ms", KINDS[2]),
        ("serve.service_module_slice_ms", KINDS[3]),
    ] {
        let times: Vec<f64> = setup
            .requests
            .iter()
            .zip(&setup.service_ms)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, &t)| t)
            .collect();
        report.set(metric, mean(&times), "ms");
    }

    let mut tracer = None;
    if trace_on {
        let mut tr = Tracer::new();
        let (traced_s, untraced_s) = traced_replay(&setup, &mut tr, &mut report);
        for (metric, span) in [
            ("graph.parse_ms", "graph.parse"),
            ("serve.parse_ms", "serve.parse"),
            ("serve.encode_ms", "serve.encode"),
        ] {
            report.set(metric, tr.busy_ms(span), "ms");
        }
        report.set(
            "bench.trace_overhead_frac",
            traced_s / untraced_s - 1.0,
            "ratio",
        );
        tracer = Some(tr);
    }

    let mut col = Collector {
        setup: &setup,
        acceptable,
        received: 0,
        failed: 0,
        overloaded: 0,
        check: Duration::ZERO,
        problems: Vec::new(),
    };
    let serial = serial_loop(&engine, &mut col, seconds * SERIAL_SHARE);

    // The server reuses the engine the serial replay warmed.
    let server = Server::start(
        Arc::new(engine),
        &ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let (tx, rx) = channel();
    let mut load = Load {
        server: &server,
        col,
        rx,
        tx,
        next: 0,
        sent: 0,
        due_of: HashMap::new(),
        latency_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        late_ms: Vec::new(),
        segment_throughput: Vec::new(),
    };
    let segment = seconds * (1.0 - SERIAL_SHARE) / f64::from(SEGMENTS);
    for _ in 0..SEGMENTS {
        load.open_segment(segment * OPEN_LOOP_SHARE);
        load.closed_segment(segment * (1.0 - OPEN_LOOP_SHARE));
    }
    let Load {
        mut col,
        sent,
        latency_ms,
        queue_wait_ms,
        late_ms,
        segment_throughput,
        ..
    } = load;
    let summary = server.shutdown();

    let sent = sent + serial.sent;
    report.attempted = sent;
    report.failed = col.failed + sent.saturating_sub(col.received);
    if col.received < sent {
        report.fail(format!("{} requests got no reply", sent - col.received));
    }
    if summary.panics_isolated > 0 || summary.clean_worker_exits != 1 {
        report.fail(format!("server ended unclean: {summary:?}"));
    }
    report.problems.append(&mut col.problems);

    let serial_p50 = percentile(&serial.latency_ms, 50.0);
    report.set("throughput_per_s", median(&serial.throughput), "1/s");
    report.set(
        "latency_p50_ms",
        percentile(&serial.scaled_latency_ms, 50.0),
        "ms",
    );
    report.set("latency_p99_ms", percentile(&serial.latency_ms, 99.0), "ms");
    report.set("latency_samples", serial.latency_ms.len() as f64, "count");
    report.set(
        "raw.throughput_per_s",
        median(&serial.raw_throughput),
        "1/s",
    );
    report.set("raw.latency_p50_ms", serial_p50, "ms");
    report.set("bench.calibration_ms", median(&serial.kernel_ms), "ms");
    report.set(
        "serve.closed_loop_per_s",
        median(&segment_throughput),
        "1/s",
    );
    report.set(
        "serve.open_loop_p50_ms",
        percentile(&latency_ms, 50.0),
        "ms",
    );
    report.set(
        "serve.open_loop_p99_ms",
        percentile(&latency_ms, 99.0),
        "ms",
    );
    report.set("serve.open_loop_samples", latency_ms.len() as f64, "count");
    report.set(
        "serve.queue_wait_p50_ms",
        percentile(&queue_wait_ms, 50.0),
        "ms",
    );
    report.set(
        "serve.queue_wait_p99_ms",
        percentile(&queue_wait_ms, 99.0),
        "ms",
    );
    report.set("bench.gen_late_p99_ms", percentile(&late_ms, 99.0), "ms");
    report.set("serve.overloaded", col.overloaded as f64, "count");
    report.set("verify.check_ms", ms(col.check), "ms");
    report.set("verify.violations", col.failed as f64, "count");
    (report, tracer)
}
