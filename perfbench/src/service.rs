//! `service-http`: an in-process `Server` on loopback with two
//! closed-loop `Client`s, each sending `POST /v1/batch` requests from its
//! own seeded job list and waiting for the reply.
//!
//! The service has explicit workers and enough `max_engines` for every
//! fingerprint of the mix, and set-up (server start plus one pass that
//! warms every fingerprint) runs before timing, so the timed part is
//! fully warm.  One operation is one batch round trip: the two capacities
//! of one case, on either side of its threshold.  The run is split into
//! segments with their own server and set-up.  The traced run ends by
//! draining its server with one idle keep-alive client still connected,
//! under the default front-end configuration (`drain_s`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use advocat::prelude::*;
use advocat_frontend::{Client, ClientConfig, FrontendConfig, Server};

use crate::jobs::{self, Job, CASES};
use crate::layers::{self, ms_since, BuildLayers, PerClass};
use crate::report::median;
use crate::sizing::fabric_config;
use crate::{host, Outcome, RunConfig};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Service worker threads (at most the host's parallelism).
const WORKERS: usize = 2;
/// Set-up segments of an untraced run.
const SEGMENTS: usize = 2;
/// Rounds of each case in a client's job list; the list is cycled.
const ROUNDS: usize = 8;
/// Per-batch wait budget handed to the server.
const BATCH_WAIT_MS: u64 = 60_000;
/// Round trips (both clients together) after which the first segment
/// reads its peak memory: the learnt-clause databases grow with every
/// query, so peak memory is read over a fixed amount of work, not a
/// fixed time.
const RSS_AFTER_OPS: usize = 2000;

/// One job outcome as read from the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireOutcome {
    /// Name the job carried (the case name).
    pub name: String,
    /// Capacity the job checked.
    pub capacity: usize,
    /// `deadlock-free`, `potential-deadlock`, `unknown`, or an error kind.
    pub status: String,
    /// Time queued (including turnstile parking) before execution, ms.
    pub queue_wait_ms: f64,
    /// Execution time, ms.
    pub work_ms: f64,
    /// SAT conflicts the job's query spent.
    pub conflicts: u64,
    /// SAT propagations the job's query spent.
    pub propagations: u64,
}

/// Splits a JSON array of objects into the objects' texts, respecting
/// strings.
fn objects(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The number after `"key":` in `text`.
fn number(text: &str, key: &str) -> Option<f64> {
    let rest = text.split(&format!("\"{key}\":")).nth(1)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the outcome array of a `/v1/batch` reply.
pub fn parse_outcomes(body: &str) -> Vec<WireOutcome> {
    objects(body)
        .into_iter()
        .map(|object| WireOutcome {
            name: layers::str_field(object, "name")
                .unwrap_or_default()
                .to_owned(),
            capacity: number(object, "capacity").unwrap_or(0.0) as usize,
            status: layers::str_field(object, "status")
                .unwrap_or_default()
                .to_owned(),
            queue_wait_ms: number(object, "queue_wait_ms").unwrap_or(0.0),
            work_ms: number(object, "work_elapsed_ms").unwrap_or(0.0),
            conflicts: number(object, "sat_conflicts").unwrap_or(0.0) as u64,
            propagations: number(object, "sat_propagations").unwrap_or(0.0) as u64,
        })
        .collect()
}

/// Whether a batch reply answers `job` as the oracle expects.
fn is_expected(job: &Job, status: u16, outcomes: &[WireOutcome]) -> bool {
    let case = &CASES[job.case];
    let expected = case.expected();
    status == 200
        && outcomes.len() == expected.len()
        && outcomes.iter().zip(&expected).all(|(o, (capacity, free))| {
            let want = if *free {
                "deadlock-free"
            } else {
                "potential-deadlock"
            };
            o.name == case.name && o.capacity == *capacity && o.status == want
        })
}

/// One timed batch round trip.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Whether this is the case's first round trip in the client's
    /// timed part.
    pub first: bool,
    /// Round-trip time, ms.
    pub rtt_ms: f64,
    /// The job outcomes of the reply.
    pub outcomes: Vec<WireOutcome>,
}

/// A server over a fresh warm-engine service, with its clients
/// connected and every fingerprint warmed: the set-up of a segment.
struct Segment {
    server: Server,
    clients: Vec<Client>,
    setup_s: f64,
}

fn client(addr: &str) -> Client {
    Client::connect(addr, ClientConfig::default()).expect("loopback server accepts")
}

impl Segment {
    fn open(telemetry: &Telemetry, outcome: &mut Outcome) -> Segment {
        let start = Instant::now();
        let groups = (0..CLIENTS)
            .flat_map(|c| jobs::owned_cases(c, CLIENTS))
            .map(|i| CASES[i].engine_key())
            .fold(Vec::new(), |mut keys, key| {
                if !keys.contains(&key) {
                    keys.push(key);
                }
                keys
            });
        let service = Arc::new(Service::new(
            ServiceConfig::default()
                .with_workers(host::workers(WORKERS))
                .with_max_engines(groups.len() + 1)
                .with_queue_capacity(64)
                .with_telemetry(telemetry.clone()),
        ));
        let server = Server::start(service, telemetry.clone(), None, FrontendConfig::default())
            .expect("loopback bind");
        let addr = server.addr().to_string();
        let mut clients: Vec<Client> = (0..CLIENTS).map(|_| client(&addr)).collect();
        // Warm every fingerprint: each client sends each of its cases once.
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let (mut attempted, mut wrong) = (0, 0);
                        for case in jobs::owned_cases(c, CLIENTS) {
                            attempted += 1;
                            let job = Job {
                                case,
                                json: CASES[case].request_json(),
                            };
                            let (status, outcomes) = round_trip(client, &job);
                            if !is_expected(&job, status, &outcomes) {
                                wrong += 1;
                            }
                        }
                        (attempted, wrong)
                    })
                })
                .collect();
            for handle in handles {
                let (attempted, wrong) = handle.join().expect("warm-up client panicked");
                outcome.attempted += attempted;
                outcome.failed += wrong;
            }
        });
        Segment {
            server,
            clients,
            setup_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Runs both clients' closed loops for `duration`, returning every
    /// sample and the wall time of the timed part.
    fn run(&mut self, seed: u64, duration: Duration, outcome: &mut Outcome) -> (Vec<Sample>, f64) {
        let start = Instant::now();
        let done = AtomicUsize::new(0);
        let peak = Mutex::new(None);
        let (done, peak) = (&done, &peak);
        let results: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let list = jobs::generate(seed, c, CLIENTS, ROUNDS);
                        let mut seen = vec![false; CASES.len()];
                        let (mut samples, mut attempted, mut wrong) = (Vec::new(), 0, 0);
                        for job in list.iter().cycle() {
                            if start.elapsed() >= duration {
                                break;
                            }
                            let sent = Instant::now();
                            let (status, outcomes) = round_trip(client, job);
                            let rtt_ms = ms_since(sent);
                            attempted += 1;
                            if done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_OPS {
                                *peak.lock().expect("peak lock") = host::peak_rss_mb();
                            }
                            if !is_expected(job, status, &outcomes) {
                                wrong += 1;
                            }
                            samples.push(Sample {
                                first: !std::mem::replace(&mut seen[job.case], true),
                                rtt_ms,
                                outcomes,
                            });
                        }
                        (samples, attempted, wrong)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let peak = peak.lock().expect("peak lock").take();
        outcome.peak_rss_mb = outcome.peak_rss_mb.or(peak);
        let mut samples = Vec::new();
        for (s, attempted, wrong) in results {
            samples.extend(s);
            outcome.attempted += attempted;
            outcome.failed += wrong;
        }
        (samples, wall_s)
    }

    /// Closes every client, then drains: fast, nothing is left waiting.
    fn close(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.join();
    }

    /// Drains with one idle keep-alive client still connected and
    /// returns the drain time in seconds.
    fn close_with_idle_client(mut self) -> f64 {
        let idle = self.clients.pop();
        drop(self.clients);
        let start = Instant::now();
        self.server.shutdown();
        self.server.join();
        let drain_s = start.elapsed().as_secs_f64();
        drop(idle);
        drain_s
    }
}

/// Sends one batch and reads its reply; a transport failure reads as
/// status 0.
fn round_trip(client: &mut Client, job: &Job) -> (u16, Vec<WireOutcome>) {
    match client.batch(&job.json, BATCH_WAIT_MS) {
        Ok(exchange) if exchange.status == 200 => (200, parse_outcomes(&exchange.body)),
        Ok(exchange) => (exchange.status, Vec::new()),
        Err(_) => (0, Vec::new()),
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let disabled = Telemetry::disabled();
    let per_segment = Duration::from_secs(config.seconds).div_f64(SEGMENTS as f64);
    let (mut setup_s, mut op_ms, mut ops, mut wall) = (Vec::new(), Vec::new(), 0usize, 0.0);
    for _ in 0..SEGMENTS {
        let mut open = Segment::open(&disabled, &mut outcome);
        setup_s.push(open.setup_s);
        let (samples, wall_s) = open.run(config.seed, per_segment, &mut outcome);
        ops += samples.len();
        wall += wall_s;
        op_ms.extend(samples.iter().map(|s| s.rtt_ms));
        open.close();
        outcome.ref_ms.push(host::ref_loop_ms());
    }
    outcome.set_end_to_end(&setup_s, &op_ms, ops as f64 / wall);
    outcome
}

/// The traced run: per-layer metrics.  An untraced segment and a traced
/// one each take half the time; the build layers of every fabric in the
/// mix are timed from outside before and after them.
pub fn run_traced(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let mut per_class = PerClass::default();
    let invariants = time_fabrics(&mut per_class);

    let disabled = Telemetry::disabled();
    let half = Duration::from_secs(config.seconds).div_f64(2.0);
    let mut open = Segment::open(&disabled, &mut outcome);
    let (untraced, untraced_wall) = open.run(config.seed, half, &mut outcome);
    open.close();

    let (telemetry, trace) = Telemetry::ring(1 << 20);
    let mut open = Segment::open(&telemetry, &mut outcome);
    drop(trace.drain());
    let (traced, traced_wall) = open.run(config.seed, half, &mut outcome);
    let health = open.clients[0].health().map(|e| e.body).unwrap_or_default();
    let metrics_text = open.clients[0]
        .metrics()
        .map(|e| e.body)
        .unwrap_or_default();
    let drain_s = open.close_with_idle_client();
    telemetry.flush();
    let lines = trace.drain();
    time_fabrics(&mut per_class);

    record_checks(&mut per_class, &lines);
    // Queue wait and work per job from the outcome JSON; wire time per
    // round trip is what neither accounts for: the batch is answered when
    // its last job finishes.
    let jobs = || traced.iter().flat_map(|s| &s.outcomes);
    let wire: Vec<f64> = traced
        .iter()
        .map(|s| {
            let last = s.outcomes.iter().map(|o| o.queue_wait_ms + o.work_ms);
            s.rtt_ms - last.fold(0.0, f64::max)
        })
        .collect();
    let queue_wait: Vec<f64> = jobs().map(|o| o.queue_wait_ms).collect();
    let work: Vec<f64> = jobs().map(|o| o.work_ms).collect();
    // Counts of each case's first round trip of the untraced timed part
    // (an enabled telemetry handle changes the solver's search path):
    // every engine serves one client's seeded sequence, so they repeat.
    let firsts = || {
        untraced
            .iter()
            .filter(|s| s.first)
            .flat_map(|s| &s.outcomes)
    };
    let conflicts: u64 = firsts().map(|o| o.conflicts).sum();
    let propagations: u64 = firsts().map(|o| o.propagations).sum();

    let m = &mut outcome.metrics;
    layers::build_metrics(&per_class, m);
    m.set("invariants.count", invariants as f64, "count");
    m.set("deadlock.check_ms", per_class.unit_sum("check_ms"), "ms");
    m.set(
        "deadlock.check_ms.free",
        per_class.unit_sum("check_free_ms"),
        "ms",
    );
    m.set(
        "deadlock.check_ms.candidate",
        per_class.unit_sum("check_candidate_ms"),
        "ms",
    );
    m.set("logic.sat_conflicts", conflicts as f64, "count");
    m.set("logic.sat_propagations", propagations as f64, "count");
    m.set("frontend.wire_ms", median(&wire), "ms");
    m.set("service.queue_wait_ms", median(&queue_wait), "ms");
    m.set("service.work_ms", median(&work), "ms");
    for (key, name, unit) in [
        ("warm_hit_rate", "pool.warm_hit_ratio", "ratio"),
        ("evictions", "pool.evictions", "count"),
        ("steals", "service.steals", "count"),
    ] {
        if let Some(value) = number(&health, key) {
            m.set(name, value, unit);
        }
    }
    if let Some(live) = gauge(&metrics_text, "sat_live_learnt_clauses") {
        m.set("pool.live_learnts", live, "count");
    }
    m.set("drain_s", drain_s, "s");
    m.set(
        "telemetry.overhead",
        (traced.len() as f64 / traced_wall) / (untraced.len() as f64 / untraced_wall),
        "ratio",
    );
    outcome.samples = traced.len();
    outcome
}

/// The value of an unlabelled Prometheus sample line `name value`.
fn gauge(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// Splits the `query.check` spans of a traced segment by the case and
/// capacity of their enclosing `job.execute` span and by the oracle's
/// verdict for it; one class per case and capacity.
fn record_checks(per_class: &mut PerClass, lines: &[String]) {
    let enters = layers::entered(lines);
    let job_of = |id: u64| -> Option<(usize, usize)> {
        let enter = enters.get(&id)?;
        let fields = enter.split("\"fields\":").nth(1)?;
        let name = layers::str_field(fields, "name")?;
        let capacity = layers::str_field(fields, "capacity")?.parse().ok()?;
        Some((CASES.iter().position(|c| c.name == name)?, capacity))
    };
    for span in layers::closed_spans(lines) {
        if span.name != "query.check" {
            continue;
        }
        let Some((case, capacity)) = span.parent.and_then(job_of) else {
            continue;
        };
        let free = CASES[case]
            .expected()
            .iter()
            .any(|&(c, free)| c == capacity && free);
        let class = format!("{}@{capacity}", CASES[case].name);
        per_class.add(&class, "check_ms", span.ms);
        let split = if free {
            "check_free_ms"
        } else {
            "check_candidate_ms"
        };
        per_class.add(&class, split, span.ms);
    }
}

/// Times the build layers of every distinct fabric of the mix from
/// outside; returns the invariants derived over them.
fn time_fabrics(per_class: &mut PerClass) -> usize {
    let mut seen = Vec::new();
    let mut invariants = 0;
    for case in CASES {
        if seen.contains(&case.fabric) {
            continue;
        }
        seen.push(case.fabric);
        let (lo, hi) = case.capacities();
        let config = fabric_config(case.fabric);
        let layers = BuildLayers::measure(|| build_fabric_for_sweep(&config, hi), Some(lo..=hi))
            .expect("oracle fabrics build");
        layers.record(per_class, case.name);
        invariants += layers.invariants;
    }
    invariants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_replies_parse_past_escaped_witness_text() {
        let body = r#"[{"id":1,"name":"ami-mesh","capacity":2,"fingerprint":"ab","status":"potential-deadlock","witness":"q \"x\" {1,2}","queue_wait_ms":0.125,"work_elapsed_ms":3.500,"warm_hit":true,"deadline_exceeded":false,"delta":{"templates_built":0,"queries":1,"sat_conflicts":7,"sat_propagations":90}},{"id":2,"name":"ami-mesh","capacity":3,"fingerprint":"ab","status":"deadlock-free","queue_wait_ms":1.000,"work_elapsed_ms":2.000,"warm_hit":true,"deadline_exceeded":false}]"#;
        let outcomes = parse_outcomes(body);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].status, "potential-deadlock");
        assert_eq!(outcomes[0].capacity, 2);
        assert_eq!(outcomes[0].conflicts, 7);
        assert_eq!(outcomes[0].propagations, 90);
        assert_eq!(outcomes[0].work_ms, 3.5);
        assert_eq!(outcomes[1].status, "deadlock-free");
        assert_eq!(outcomes[1].queue_wait_ms, 1.0);
        let job = Job {
            case: 0,
            json: CASES[0].request_json(),
        };
        assert!(is_expected(&job, 200, &outcomes));
        assert!(!is_expected(&job, 504, &outcomes));
    }
}
