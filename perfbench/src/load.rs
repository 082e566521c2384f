//! Open-loop HTTP load against a running `mlpeer-serve`.
//!
//! Requests follow a fixed schedule: request `i` is due at
//! `start + i / rate`, whatever happened to earlier ones. Each
//! connection is driven by one thread that sends its share of the
//! schedule in order over one keep-alive connection. Latency is timed
//! from the due time, so a stall also charges the requests queued
//! behind it. Generator lateness is timed separately: how far past
//! `max(due, previous reply)` the thread actually sent, which is the
//! generator's own delay and not the server's.

use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlpeer_serve::http::{read_response, ResponseParts};

/// The request classes of the GET mix, in the order they are reported.
pub const CLASSES: [&str; 7] = [
    "member",
    "prefix_exact",
    "prefix_agg",
    "ixp_links",
    "ixps",
    "validate",
    "revalidate",
];

/// Index of `revalidate` in [`CLASSES`].
const REVALIDATE: usize = CLASSES.len() - 1;

/// Share of requests sent as `If-None-Match` revalidations, per mille.
/// There is no recorded traffic to take it from: it is an assumption
/// (a quarter of requests come from clients that already hold a copy).
/// Every other choice in the mix is mechanical; see [`Mix::schedule`].
const REVALIDATE_PER_MILLE: u64 = 250;

/// A failed request counts as this late, so it misses any latency limit.
const FAILED_US: f64 = 1e9;

/// One addressable resource of the served API.
#[derive(Debug, Clone)]
pub struct Target {
    /// Request path, with query string if any.
    pub path: String,
}

/// The discovered targets, grouped by class. `revalidate` has no
/// targets of its own: it re-sends a target of another class with
/// `If-None-Match`.
#[derive(Debug, Default)]
pub struct Mix {
    by_class: Vec<Vec<Target>>,
}

impl Mix {
    /// Read a targets file: one `class<TAB>path` line per target.
    pub fn read(path: &str) -> io::Result<Mix> {
        let mut mix = Mix {
            by_class: vec![Vec::new(); CLASSES.len()],
        };
        for line in BufReader::new(std::fs::File::open(path)?).lines() {
            let line = line?;
            let Some((class, path)) = line.split_once('\t') else {
                continue;
            };
            let Some(class) = CLASSES.iter().position(|c| *c == class) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown class {class}"),
                ));
            };
            mix.by_class[class].push(Target {
                path: path.to_string(),
            });
        }
        if mix.by_class.iter().all(Vec::is_empty) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "no targets"));
        }
        Ok(mix)
    }

    /// Every target of one class.
    pub fn targets(&self, class: usize) -> &[Target] {
        &self.by_class[class]
    }

    /// The first `n` requests of the seeded schedule. Every
    /// discovered target is equally likely, so a class's share is its
    /// share of the targets. A request is sent as a revalidation with
    /// [`REVALIDATE_PER_MILLE`] odds.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<Planned> {
        let mut rng = SplitMix(seed ^ 0x6d69_7800);
        let all: Vec<(usize, &Target)> = self
            .by_class
            .iter()
            .enumerate()
            .flat_map(|(class, list)| list.iter().map(move |t| (class, t)))
            .collect();
        (0..n)
            .map(|_| {
                let (class, t) = all[(rng.next() % all.len() as u64) as usize];
                let mut p = Planned {
                    target: t.clone(),
                    class,
                    inm: None,
                };
                if rng.next() % 1000 < REVALIDATE_PER_MILLE {
                    revalidation(&mut p, &mut rng);
                }
                p
            })
            .collect()
    }

    /// `n` requests of one class alone (targets of the class equally
    /// likely), for timing each class on its own.
    pub fn of_class(&self, class: usize, seed: u64, n: usize) -> Vec<Planned> {
        let mut rng = SplitMix(seed ^ class as u64);
        let plain = if class == REVALIDATE {
            self.schedule(seed, n)
        } else {
            let list = &self.by_class[class];
            (0..if list.is_empty() { 0 } else { n })
                .map(|_| Planned {
                    target: list[(rng.next() % list.len() as u64) as usize].clone(),
                    class,
                    inm: None,
                })
                .collect()
        };
        plain
            .into_iter()
            .map(|mut p| {
                if class == REVALIDATE {
                    revalidation(&mut p, &mut rng);
                }
                p
            })
            .collect()
    }
}

/// Turn `p` into a revalidation: the current ETag four times in five, a
/// stale one otherwise (which must draw a 200).
fn revalidation(p: &mut Planned, rng: &mut SplitMix) {
    p.class = REVALIDATE;
    p.inm = Some(rng.next().is_multiple_of(5));
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// What to fetch.
    pub target: Target,
    /// Reported class (a revalidation reports as `revalidate`).
    pub class: usize,
    /// `None`: plain GET. `Some(false)`: `If-None-Match` with the
    /// current ETag. `Some(true)`: with a stale ETag.
    pub inm: Option<bool>,
}

/// A small deterministic PRNG for schedules.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The ETag revalidations send: fixed for a batch server, or the
/// newest one the SSE subscriber saw on a live server.
#[derive(Debug, Clone)]
pub struct EtagSource(Arc<Mutex<String>>);

impl EtagSource {
    /// A source holding `etag` (without quotes).
    pub fn new(etag: &str) -> EtagSource {
        EtagSource(Arc::new(Mutex::new(etag.to_string())))
    }

    fn get(&self) -> String {
        self.0.lock().expect("etag lock").clone()
    }

    fn set(&self, etag: &str) {
        *self.0.lock().expect("etag lock") = etag.to_string();
    }
}

/// A keep-alive client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    fn get(&mut self, path: &str, inm: Option<&str>) -> io::Result<ResponseParts> {
        let mut req = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n");
        if let Some(tag) = inm {
            req.push_str(&format!("If-None-Match: \"{tag}\"\r\n"));
        }
        req.push_str("\r\n");
        self.writer.write_all(req.as_bytes())?;
        read_response(&mut self.reader)
    }
}

/// A response's ETag, without quotes.
fn etag_of(reply: &ResponseParts) -> Option<&str> {
    reply.header("etag").map(|v| v.trim_matches('"'))
}

/// Settings of one open-loop phase.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address `host:port`.
    pub addr: String,
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length of the schedule.
    pub seconds: f64,
    /// Connections (one thread each).
    pub conns: usize,
    /// Schedule seed.
    pub seed: u64,
    /// A live server: bodies change between epochs, and a member whose
    /// links churned away answers the documented 404.
    pub live: bool,
    /// Consecutive windows the schedule is cut into; latency
    /// percentiles are also taken per window, so one host hiccup moves
    /// one window, not the figure.
    pub windows: usize,
}

/// The outcome of one open-loop phase.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests sent or attempted.
    pub attempted: u64,
    /// Refused or dropped connections, timeouts and wrong statuses.
    pub failed: u64,
    /// Why requests failed, by reason.
    pub fail_reasons: BTreeMap<String, u64>,
    /// Latency from due time, by schedule position, in microseconds.
    pub latency_us: Vec<f64>,
    /// Per window of the schedule: p50 and p99 latency in
    /// microseconds.
    pub windows: Vec<(f64, f64)>,
    /// Per class: (count, summed send-to-reply time in us).
    pub service_us: Vec<(u64, f64)>,
    /// Generator lateness by schedule position, in microseconds.
    pub late_us: Vec<f64>,
    /// Broken correctness rules (304 iff the ETag matches; one body
    /// per target on a batch server), with one example each.
    pub violations: BTreeMap<String, (u64, String)>,
    /// Latency (done − due) of the last tenth of the schedule, p50: a
    /// backlog still queued when the schedule ends shows here.
    pub tail_lateness_us: f64,
}

impl LoadReport {
    fn violate(&mut self, rule: &str, example: String) {
        let e = self
            .violations
            .entry(rule.to_string())
            .or_insert((0, example));
        e.0 += 1;
    }

    fn fail(&mut self, reason: &str) {
        self.failed += 1;
        *self.fail_reasons.entry(reason.to_string()).or_default() += 1;
    }

    fn merge(&mut self, other: LoadReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.fail_reasons {
            *self.fail_reasons.entry(k).or_default() += v;
        }
        for (i, (n, s)) in other.service_us.into_iter().enumerate() {
            self.service_us[i].0 += n;
            self.service_us[i].1 += s;
        }
        for (k, (n, ex)) in other.violations {
            self.violations.entry(k).or_insert((0, ex)).0 += n;
        }
    }
}

/// Percentile of unsorted samples in microseconds (`q` in 0..=1), by
/// the serving crate's own load generator's rule.
pub fn percentile(samples_us: &[f64], q: f64) -> f64 {
    let mut ns: Vec<u64> = samples_us.iter().map(|us| (us * 1e3) as u64).collect();
    ns.sort_unstable();
    let report = mlpeer_serve::loadgen::LoadReport {
        latencies_us: ns,
        ..Default::default()
    };
    report.latency_us(q) as f64 / 1e3
}

/// Run one open-loop phase over `mix`.
pub fn run(cfg: &LoadConfig, mix: &Mix, etag: &EtagSource) -> LoadReport {
    let n = (cfg.rate * cfg.seconds).round().max(1.0) as usize;
    let plan = Arc::new(mix.schedule(cfg.seed, n));
    let interval = Duration::from_secs_f64(1.0 / cfg.rate);
    let start = Instant::now() + Duration::from_millis(20);
    let mut report = LoadReport {
        service_us: vec![(0, 0.0); CLASSES.len()],
        ..LoadReport::default()
    };
    let samples: Vec<(usize, f64, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let plan = Arc::clone(&plan);
                let etag = etag.clone();
                s.spawn(move || drive(cfg, c, &plan, start, interval, &etag))
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            let (r, l) = w.join().expect("load thread panicked");
            report.merge(r);
            all.extend(l);
        }
        all
    });
    report.latency_us = vec![0.0; n];
    report.late_us = vec![0.0; n];
    for (i, l, g) in samples {
        report.latency_us[i] = l;
        report.late_us[i] = g;
    }
    let per = n.div_ceil(cfg.windows.max(1));
    report.windows = report
        .latency_us
        .chunks(per)
        .map(|w| (percentile(w, 0.5), percentile(w, 0.99)))
        .collect();
    report.tail_lateness_us = percentile(&report.latency_us[n - n / 10..], 0.5);
    report
}

/// One connection's share of the schedule: requests `c, c + conns, …`.
fn drive(
    cfg: &LoadConfig,
    c: usize,
    plan: &[Planned],
    start: Instant,
    interval: Duration,
    etag: &EtagSource,
) -> (LoadReport, Vec<(usize, f64, f64)>) {
    let mut r = LoadReport {
        service_us: vec![(0, 0.0); CLASSES.len()],
        ..LoadReport::default()
    };
    let mut samples = Vec::new();
    let mut bodies: HashMap<&str, u64> = HashMap::new();
    let mut client: Option<Client> = None;
    let mut prev_done = start;
    for i in (c..plan.len()).step_by(cfg.conns) {
        let p = &plan[i];
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let gen_late = sent.duration_since(due.max(prev_done)).as_secs_f64() * 1e6;
        r.attempted += 1;
        let current = etag.get();
        let inm = p.inm.map(|stale| {
            if stale {
                "0000000000000000".to_string()
            } else {
                current.clone()
            }
        });
        let reply = match client.as_mut() {
            Some(cl) => cl.get(&p.target.path, inm.as_deref()),
            None => Client::connect(&cfg.addr).and_then(|mut cl| {
                let reply = cl.get(&p.target.path, inm.as_deref());
                client = Some(cl);
                reply
            }),
        };
        let done = Instant::now();
        prev_done = done;
        let late = done.duration_since(due).as_secs_f64() * 1e6;
        match reply {
            Err(e) => {
                client = None;
                let reason = match e.kind() {
                    io::ErrorKind::ConnectionRefused => "refused",
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => "timeout",
                    _ => "dropped",
                };
                r.fail(reason);
                samples.push((i, FAILED_US, gen_late));
                continue;
            }
            Ok(reply) => {
                if reply
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    client = None;
                }
                let ok = check(cfg, p, &reply, inm.as_deref(), &mut r, &mut bodies);
                let recorded = if ok { late } else { FAILED_US };
                if ok {
                    r.service_us[p.class].0 += 1;
                    r.service_us[p.class].1 += done.duration_since(sent).as_secs_f64() * 1e6;
                }
                samples.push((i, recorded, gen_late));
            }
        }
    }
    (r, samples)
}

/// Apply the per-response correctness rules; false when the response
/// counts as failed.
fn check<'p>(
    cfg: &LoadConfig,
    p: &'p Planned,
    reply: &ResponseParts,
    inm: Option<&str>,
    r: &mut LoadReport,
    bodies: &mut HashMap<&'p str, u64>,
) -> bool {
    let path = p.target.path.as_str();
    match reply.status {
        200 | 304 => {}
        404 if cfg.live
            && path.starts_with("/v1/member/")
            && String::from_utf8_lossy(&reply.body).contains("no multilateral links") =>
        {
            // The member's links churned away: the documented answer.
            return true;
        }
        s => {
            r.fail(&format!("status_{s}"));
            r.violate("4xx_or_5xx_on_target", format!("{s} {path}"));
            return false;
        }
    }
    let etag = etag_of(reply);
    let matched = inm.is_some() && inm == etag;
    if (reply.status == 304) != matched {
        r.violate(
            "304_iff_etag_matches",
            format!("{} {path} inm={inm:?} etag={etag:?}", reply.status),
        );
        r.fail("wrong_conditional");
        return false;
    }
    if reply.status == 200 && !cfg.live {
        let mut h = DefaultHasher::new();
        h.write(&reply.body);
        let hash = h.finish();
        if *bodies.entry(path).or_insert(hash) != hash {
            r.violate("one_body_per_target", path.to_string());
            r.fail("body_changed");
            return false;
        }
    }
    true
}

/// The highest rung of a fixed ladder an open-loop phase passes: p99
/// under `limit_us`, no failures, and no backlog left at the end.
/// Rungs are `500 · 2^(k/16)` requests per second. The search doubles
/// (16 rungs at a time) from `start_rung` until a step fails, then
/// bisects between the last pass and the first failure.
pub fn ladder(
    base: &LoadConfig,
    mix: &Mix,
    etag: &EtagSource,
    start_rung: u32,
    step_s: f64,
    limit_us: f64,
) -> (f64, Vec<(f64, bool, f64)>, LoadReport) {
    let rung = |k: u32| 500.0 * 2f64.powf(f64::from(k) / 16.0);
    let mut steps = Vec::new();
    let mut all = LoadReport {
        service_us: vec![(0, 0.0); CLASSES.len()],
        ..LoadReport::default()
    };
    // A rung fails only when two steps in a row fail it: one host
    // hiccup must not end the climb.
    let mut try_rung = |k: u32, steps: &mut Vec<(f64, bool, f64)>| {
        (0..2u64).any(|attempt| {
            let cfg = LoadConfig {
                rate: rung(k),
                seconds: step_s,
                seed: base.seed.wrapping_add(u64::from(k) + 1000 * attempt),
                windows: 5,
                ..base.clone()
            };
            let mut r = run(&cfg, mix, etag);
            let p99 = percentile(&r.windows.iter().map(|w| w.1).collect::<Vec<_>>(), 0.5);
            let pass = r.failed == 0 && p99 <= limit_us && r.tail_lateness_us <= limit_us;
            steps.push((cfg.rate, pass, p99));
            // Failures on an overloaded rung are the ladder's probe, not
            // wrong answers; only correctness violations carry over.
            r.failed = 0;
            r.fail_reasons.clear();
            r.latency_us.clear();
            r.late_us.clear();
            r.windows.clear();
            all.merge(r);
            std::thread::sleep(Duration::from_millis(100));
            pass
        })
    };
    // Climb 16 rungs (a doubling) at a time until a step fails.
    let top = 16 * 8;
    let (mut lo, mut hi) = (None, None);
    let mut k = start_rung;
    loop {
        if try_rung(k, &mut steps) {
            lo = Some(k);
            if k >= top {
                break;
            }
            k = (k + 16).min(top);
        } else {
            hi = Some(k);
            break;
        }
    }
    // Even the first step failed: walk down a doubling at a time.
    while lo.is_none() && k > 0 {
        k = k.saturating_sub(16);
        if try_rung(k, &mut steps) {
            lo = Some(k);
        } else {
            hi = Some(k);
        }
    }
    let Some(mut lo_k) = lo else {
        return (0.0, steps, all);
    };
    // Bisect between the last pass and the first failure.
    if let Some(mut hi_k) = hi {
        while hi_k - lo_k > 1 {
            let mid = (lo_k + hi_k) / 2;
            if try_rung(mid, &mut steps) {
                lo_k = mid;
            } else {
                hi_k = mid;
            }
        }
    }
    (rung(lo_k), steps, all)
}

/// One SSE frame as received.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Milliseconds since the subscriber started.
    pub at_ms: f64,
    /// `id:` of the frame (the epoch it brings the client to).
    pub epoch: u64,
    /// `event:` name.
    pub event: String,
    /// The snapshot ETag the frame's body names.
    pub etag: String,
}

/// Subscribe to `/v1/changes?since=<since>` as SSE until `deadline`
/// or until `stop` is set. Returns the frames and whether the stream
/// stayed open throughout.
pub fn subscribe_from(
    addr: &str,
    since: u64,
    deadline: Instant,
    etag: &EtagSource,
    stop: &AtomicBool,
) -> (Vec<Frame>, Result<(), String>) {
    let t0 = Instant::now();
    let mut frames = Vec::new();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return (frames, Err(format!("connect: {e}"))),
    };
    let req = format!(
        "GET /v1/changes?since={since} HTTP/1.1\r\nHost: perfbench\r\n\
         Accept: text/event-stream\r\n\r\n"
    );
    if let Err(e) = stream.write_all(req.as_bytes()) {
        return (frames, Err(format!("send: {e}")));
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Lines, not bytes: the status line, the head, then one frame per
    // run of lines ending in a blank one. A read that times out keeps
    // the part of the line it got in `line`.
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let (mut status_seen, mut head_done) = (false, false);
    let mut frame_lines: Vec<String> = Vec::new();
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return (frames, Err("stream closed by server".into())),
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return (frames, Err(format!("read: {e}"))),
        }
        let text = String::from_utf8_lossy(&line).trim_end().to_string();
        line.clear();
        if !status_seen {
            if !text.starts_with("HTTP/1.1 200") {
                return (frames, Err("subscription refused".into()));
            }
            status_seen = true;
        } else if !head_done {
            head_done = text.is_empty();
        } else if !text.is_empty() {
            frame_lines.push(text);
        } else if !frame_lines.is_empty() {
            let mut frame = Frame {
                at_ms: t0.elapsed().as_secs_f64() * 1e3,
                epoch: 0,
                event: String::new(),
                etag: String::new(),
            };
            for l in frame_lines.drain(..) {
                if let Some(v) = l.strip_prefix("id: ") {
                    frame.epoch = v.trim().parse().unwrap_or(0);
                } else if let Some(v) = l.strip_prefix("event: ") {
                    frame.event = v.trim().to_string();
                } else if let Some(v) = l.strip_prefix("data: ") {
                    if let Some(rest) = v.trim().strip_prefix("\"etag\": \"") {
                        frame.etag = rest.trim_end_matches(['"', ',']).to_string();
                    }
                }
            }
            if frame.event != "changes" {
                let ev = frame.event.clone();
                frames.push(frame);
                return (frames, Err(format!("terminal {ev} event")));
            }
            etag.set(&frame.etag);
            frames.push(frame);
        }
    }
    (frames, Ok(()))
}
