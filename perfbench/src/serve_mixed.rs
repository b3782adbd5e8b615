//! `serve_mixed`: an open-loop NDJSON request stream fed through
//! `dvafs::serve::serve_session` (2 workers) at a ladder of fixed rates.
//!
//! One generator thread sends each request at its due time (Poisson
//! arrivals); latency is timed from the due time to the reply line, so a
//! stall also counts against the requests queued behind it. Every rung
//! serves a prefix of one seeded request stream with a fresh, pre-warmed
//! `ServeState`, so one serial replay of the longest prefix (1 worker,
//! queue 1) is the byte oracle for every rung and also gives each
//! request's service time.

use crate::trace::Trace;
use crate::util::{median, percentile, secs_since, supported_percentile, Rng};
use crate::{Metric, Report};
use dvafs::serve::{serve_session, ServeOpts, ServeState, DEFAULT_QUEUE};
use std::collections::HashSet;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered rates (requests per second) of the ladder, lowest first. On
/// the reference host (2 cores) the session's capacity for this mix is
/// about 280 requests per second (2140 images/s at the saturated top rung,
/// 7.6 images per request): the rungs sit near 0.25x, 0.5x (the nominal
/// rung), 0.8x and 1.6x of it.
pub const RATES: [f64; 4] = [75.0, 150.0, 225.0, 450.0];
/// Index of the nominal rung, whose latencies are the headline figures.
pub const NOMINAL: usize = 1;
/// Share of the measuring time each rung gets.
const SHARES: [f64; 4] = [0.15, 0.4, 0.15, 0.3];
/// Rounds over the ladder; each round gives every rung `1/ROUNDS` of its
/// share.
const ROUNDS: usize = 5;
/// The latency limit a sustainable rung's tail must meet.
pub const LIMIT_MS: f64 = 100.0;
/// Worker threads of the measured session.
pub const THREADS: usize = 2;

// The traffic mix. No record of real `dvafs serve` traffic exists, so the
// mix is an assumed synthetic one with one rule: every request class
// gets an equal share of its group. Light and heavy requests are half the
// stream each; the six light classes, the three models, the four sample
// counts and the four bit pairs are each drawn uniformly.

/// Base model keys every rung's state is warmed with before timing.
pub const MODELS: [&str; 3] = ["lenet5", "alexnet", "vgg16"];
/// The (weight, activation) bit pairs of heavy predicts: every pairing of
/// `SubwordMode`s the packed kernel distinguishes.
pub const BITS: [(u32, u32); 4] = [(16, 16), (8, 8), (4, 8), (4, 4)];
/// Samples per heavy predict: powers of two from 4 to 32.
const SAMPLES: [usize; 4] = [4, 8, 16, 32];
/// The light classes: ping, list, a 1-sample lenet5 predict, and `run` of
/// the three millisecond-sized scenarios.
const LIGHT_CLASSES: usize = 6;
const LIGHT_RUNS: [&str; 3] = ["fig2", "table1", "fig8"];
/// Share of heavy predicts whose model seed is drawn from `NEW_SEEDS`, so
/// a first use misses the model cache. Assumed: small, yet enough for a
/// few misses in every segment of every rung.
const NEW_SEED_SHARE: f64 = 1.0 / 16.0;
const NEW_SEEDS: std::ops::RangeInclusive<u64> = 11..=16;

/// The parameters of a generated `predict` request.
#[derive(Debug, Clone, Copy)]
pub struct Predict {
    pub model: &'static str,
    pub model_seed: u64,
    pub samples: usize,
    pub data_seed: u64,
    pub wbits: u32,
    pub abits: u32,
}

impl Predict {
    fn line(&self) -> String {
        format!(
            "{{\"op\":\"predict\",\"model\":\"{}\",\"model_seed\":{},\
             \"samples\":{},\"data_seed\":{},\"wbits\":{},\"abits\":{}}}",
            self.model, self.model_seed, self.samples, self.data_seed, self.wbits, self.abits
        )
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub light: bool,
    pub predict: Option<Predict>,
}

impl Req {
    /// Images predicted (0 for non-predict requests).
    pub fn images(&self) -> usize {
        self.predict.map_or(0, |p| p.samples)
    }
}

/// The seeded request stream (the library sees only these lines).
pub fn requests(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let data_seed = rng.next_u64() % 1_000_000;
            if rng.below(2) == 0 {
                return match rng.below(LIGHT_CLASSES) {
                    0 => other("{\"op\":\"ping\"}".to_string()),
                    1 => other("{\"op\":\"list\"}".to_string()),
                    2 => predict(
                        true,
                        Predict {
                            model: "lenet5",
                            model_seed: 1,
                            samples: 1,
                            data_seed,
                            wbits: 8,
                            abits: 8,
                        },
                    ),
                    c => other(format!(
                        "{{\"op\":\"run\",\"scenario\":\"{}\",\"format\":\"json\"}}",
                        LIGHT_RUNS[c - 3]
                    )),
                };
            }
            let model = MODELS[rng.below(MODELS.len())];
            let samples = SAMPLES[rng.below(SAMPLES.len())];
            let (wbits, abits) = BITS[rng.below(BITS.len())];
            let model_seed = if rng.unit() < NEW_SEED_SHARE {
                NEW_SEEDS.start() + rng.next_u64() % NEW_SEEDS.clone().count() as u64
            } else {
                1
            };
            predict(
                false,
                Predict {
                    model,
                    model_seed,
                    samples,
                    data_seed,
                    wbits,
                    abits,
                },
            )
        })
        .collect()
}

fn other(line: String) -> Req {
    Req {
        line,
        light: true,
        predict: None,
    }
}

fn predict(light: bool, p: Predict) -> Req {
    Req {
        line: p.line(),
        light,
        predict: Some(p),
    }
}

/// A `BufRead` over a channel of request lines that stamps the moment the
/// session's reader pulls each line.
struct ChanReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
    admits: Arc<Mutex<Vec<Instant>>>,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChanReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            if let Ok(line) = self.rx.recv() {
                self.admits
                    .lock()
                    .expect("admit log lock is never held across a panic")
                    .push(Instant::now());
                self.buf = line;
                self.pos = 0;
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// A reply sink that stamps each completed line. Without an oracle it
/// keeps the lines; with one it only records whether each line equals the
/// oracle's line and is an `"ok":true` reply, so memory stays flat.
#[derive(Default)]
struct StampWriter<'a> {
    oracle: Option<&'a [Vec<u8>]>,
    line: Vec<u8>,
    lines: Vec<Vec<u8>>,
    correct: Vec<bool>,
    stamps: Vec<Instant>,
}

impl Write for StampWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for chunk in data.split_inclusive(|&b| b == b'\n') {
            match chunk.strip_suffix(b"\n") {
                None => self.line.extend_from_slice(chunk),
                Some(rest) => {
                    self.line.extend_from_slice(rest);
                    self.stamps.push(Instant::now());
                    let line = std::mem::take(&mut self.line);
                    match self.oracle {
                        Some(oracle) => {
                            let i = self.correct.len();
                            let ok = oracle.get(i) == Some(&line)
                                && line.windows(9).any(|w| w == b"\"ok\":true");
                            self.correct.push(ok);
                        }
                        None => self.lines.push(line),
                    }
                }
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn opts(threads: usize, queue: usize) -> ServeOpts {
    ServeOpts {
        threads,
        queue,
        deadline_ms: None,
        max_requests: None,
        idle_timeout_ms: None,
        fault_plan: None,
    }
}

/// A session's observations: per request, when the reader pulled it and
/// when its reply line was written, plus the reply lines (no oracle) or
/// whether each matched the oracle.
struct Session {
    admits: Vec<Instant>,
    stamps: Vec<Instant>,
    lines: Vec<Vec<u8>>,
    correct: Vec<bool>,
}

/// Serves `lines`, each sent at `t0 + due[i]` by a generator thread (all
/// at once when `due` is `None`), checking replies against `oracle` when
/// given. Returns the session and how late the generator sent each line,
/// in seconds.
fn serve(
    lines: &[&str],
    due: Option<&[f64]>,
    t0: Instant,
    opts: &ServeOpts,
    state: &ServeState,
    oracle: Option<&[Vec<u8>]>,
) -> (Session, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let admits = Arc::new(Mutex::new(Vec::with_capacity(lines.len())));
    let reader = ChanReader {
        rx,
        buf: Vec::new(),
        pos: 0,
        admits: Arc::clone(&admits),
    };
    let mut writer = StampWriter {
        oracle,
        ..StampWriter::default()
    };
    let lateness = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut late = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                if let Some(due) = due {
                    let at = t0 + Duration::from_secs_f64(due[i]);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    late.push(secs_since(at, Instant::now()));
                }
                let mut bytes = line.as_bytes().to_vec();
                bytes.push(b'\n');
                if tx.send(bytes).is_err() {
                    break;
                }
            }
            late
        });
        serve_session(reader, &mut writer, opts, state).expect("in-memory writer cannot fail");
        generator.join().expect("generator thread does not panic")
    });
    let admits = Arc::try_unwrap(admits)
        .expect("reader dropped with the session")
        .into_inner()
        .expect("admit log lock is never held across a panic");
    (
        Session {
            admits,
            stamps: writer.stamps,
            lines: writer.lines,
            correct: writer.correct,
        },
        lateness,
    )
}

/// A fresh state with every base model built and its weight panels packed
/// at every bit pair: the session's model load, and the workload's set-up.
pub fn warm_state() -> ServeState {
    let state = ServeState::new();
    let warm: Vec<String> = MODELS
        .iter()
        .flat_map(|&model| {
            BITS.iter().map(move |&(wbits, abits)| {
                let p = Predict {
                    model,
                    model_seed: 1,
                    samples: 1,
                    data_seed: 0,
                    wbits,
                    abits,
                };
                p.line()
            })
        })
        .collect();
    let lines: Vec<&str> = warm.iter().map(String::as_str).collect();
    serve(&lines, None, Instant::now(), &opts(1, 1), &state, None);
    state
}

/// Poisson arrival offsets (seconds) for `rate` requests per second.
fn arrivals(rng: &mut Rng, rate: f64, window: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window {
            return due;
        }
        due.push(t);
    }
}

/// What one rung measured, pooled over its segments.
#[derive(Default)]
pub struct Rung {
    pub rate: f64,
    pub latency_ms: Vec<f64>,
    pub light_ms: Vec<f64>,
    pub admit_wait_ms: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub busy_frac: f64,
    /// Median over the rung's segments of images predicted per second.
    pub images_per_s: f64,
    segment_images_per_s: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Longest time a segment's last reply came after its window closed.
    pub drain_ms: f64,
    pub sustainable: bool,
    pub n: usize,
    pub failed: u64,
    pub cache_miss_frac: f64,
}

/// Runs the ladder for `seconds` of offered load: `ROUNDS` rounds, each
/// visiting every rung for its share of the time, so every rung samples
/// the whole run. Returns the rungs and the failure count; when `trace` is given, every request of the
/// nominal rung becomes a span tree.
pub fn ladder(seed: u64, seconds: f64, trace: Option<&Trace>) -> (Vec<Rung>, u64) {
    let mut rng = Rng::new(seed ^ 0xA11);
    // (rung, due offsets) in the order they run.
    let segments: Vec<(usize, Vec<f64>)> = (0..ROUNDS)
        .flat_map(|_| 0..RATES.len())
        .map(|r| {
            (
                r,
                arrivals(&mut rng, RATES[r], seconds * SHARES[r] / ROUNDS as f64),
            )
        })
        .collect();
    let longest = segments.iter().map(|(_, due)| due.len()).max().unwrap_or(0);
    let reqs = requests(seed, longest);
    let lines: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();

    // The oracle first: the longest prefix served serially, one request
    // at a time. Every segment's replies must equal its bytes, and its
    // per-request time (reply written minus line pulled) is the service
    // time.
    let state = warm_state();
    let (serial, _) = serve(&lines, None, Instant::now(), &opts(1, 1), &state, None);
    drop(state);
    let service: Vec<f64> = serial
        .stamps
        .iter()
        .zip(&serial.admits)
        .map(|(s, a)| secs_since(*a, *s))
        .collect();
    let oracle = Some(serial.lines.as_slice());
    let session_opts = opts(THREADS, DEFAULT_QUEUE);

    // An untimed segment next, so the process's first page faults and
    // allocator growth land on no rung.
    let state = warm_state();
    let warm_due = arrivals(&mut rng, RATES[NOMINAL], 0.5);
    let warm_n = warm_due.len().min(lines.len());
    serve(
        &lines[..warm_n],
        Some(&warm_due[..warm_n]),
        Instant::now(),
        &session_opts,
        &state,
        oracle,
    );
    drop(state);

    let mut sessions = Vec::new();
    for (_, due) in &segments {
        let state = warm_state();
        let t0 = Instant::now() + Duration::from_millis(2);
        let (session, late) = serve(
            &lines[..due.len()],
            Some(due),
            t0,
            &session_opts,
            &state,
            oracle,
        );
        sessions.push((t0, session, late, state.cached_models()));
    }

    let mut rungs: Vec<Rung> = RATES
        .iter()
        .map(|&rate| Rung {
            rate,
            ..Rung::default()
        })
        .collect();
    let mut busy = vec![0.0; RATES.len()];
    let mut wall = vec![0.0; RATES.len()];
    let mut predicts = vec![0usize; RATES.len()];
    let mut misses = vec![0usize; RATES.len()];
    for (seg, ((r, due), (t0, s, late, cached))) in segments.iter().zip(sessions).enumerate() {
        let (r, n) = (*r, due.len());
        let rung = &mut rungs[r];
        let mut failed = n.abs_diff(s.correct.len()) as u64;
        failed += s.correct.iter().filter(|&&ok| !ok).count() as u64;
        // Model-cache misses: first uses of a key the warm-up did not load.
        let mut seen: HashSet<(&str, u64)> = MODELS.iter().map(|&m| (m, 1)).collect();
        predicts[r] += reqs[..n].iter().filter(|q| q.predict.is_some()).count();
        misses[r] += reqs[..n]
            .iter()
            .filter_map(|q| q.predict.map(|p| (p.model, p.model_seed)))
            .filter(|&k| seen.insert(k))
            .count();
        failed += u64::from(cached != seen.len());
        rung.failed += failed;
        rung.n += n;

        let done = s.stamps.len().min(s.admits.len()).min(n);
        let due_at = |i: usize| t0 + Duration::from_secs_f64(due[i]);
        for i in 0..done {
            let latency = secs_since(due_at(i), s.stamps[i]) * 1e3;
            rung.latency_ms.push(latency);
            if reqs[i].light {
                rung.light_ms.push(latency);
            }
            rung.admit_wait_ms
                .push(secs_since(due_at(i), s.admits[i]) * 1e3);
            rung.wait_ms.push(latency - service[i] * 1e3);
            if let (Some(trace), true) = (trace, r == NOMINAL) {
                let req = Some(((seg as u64) << 32) | i as u64);
                let id = trace.record(
                    "serve.request",
                    due_at(i),
                    s.stamps[i],
                    None,
                    req,
                    reqs[i].images() as f64,
                );
                trace.record(
                    "serve.admit_wait",
                    due_at(i),
                    s.admits[i],
                    Some(id),
                    req,
                    0.0,
                );
                trace.record(
                    "serve.in_session",
                    s.admits[i],
                    s.stamps[i],
                    Some(id),
                    req,
                    service[i],
                );
            }
        }
        let seg_wall = secs_since(t0, s.stamps.last().copied().unwrap_or(t0));
        let window = seconds * SHARES[r] / ROUNDS as f64;
        rung.drain_ms = rung.drain_ms.max((seg_wall - window).max(0.0) * 1e3);
        rung.late_ms.extend(late.iter().map(|l| l * 1e3));
        busy[r] += service[..done].iter().sum::<f64>();
        wall[r] += seg_wall;
        let images: usize = reqs[..done].iter().map(Req::images).sum();
        rung.segment_images_per_s.push(images as f64 / seg_wall);
    }
    let mut failed = 0;
    for (r, rung) in rungs.iter_mut().enumerate() {
        rung.busy_frac = busy[r] / (wall[r] * THREADS as f64);
        rung.images_per_s = median(&rung.segment_images_per_s);
        rung.cache_miss_frac = misses[r] as f64 / predicts[r].max(1) as f64;
        let p99 = if rung.latency_ms.is_empty() {
            f64::INFINITY
        } else {
            percentile(&rung.latency_ms, 99.0)
        };
        rung.sustainable = rung.failed == 0 && p99 <= LIMIT_MS && rung.drain_ms <= LIMIT_MS;
        failed += rung.failed;
    }
    (rungs, failed)
}

/// The highest rung rate whose p99 meets the limit without a backlog.
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.sustainable)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

fn stat(name: &str, unit: &'static str, values: &[f64], p: f64) -> Metric {
    let value = if values.is_empty() {
        f64::NAN
    } else if p == 50.0 {
        median(values)
    } else {
        percentile(values, p)
    };
    Metric::new(name, unit, value, values.len())
}

/// The workload: the ladder, its end-to-end metrics and the detail record.
pub fn run(seed: u64, seconds: f64, trace: Option<&Trace>) -> Report {
    let (rungs, failed) = ladder(seed, seconds, trace);
    let rss = crate::util::peak_rss_mb();
    let nominal = &rungs[NOMINAL];
    let top = rungs.last().expect("the ladder has rungs");
    let tail_p = supported_percentile(nominal.latency_ms.len());
    let attempted: usize = rungs.iter().map(|r| r.n).sum();
    let max_rate = max_rate(&rungs);

    let mut report = Report::new(attempted as u64, failed);
    report.detail(Metric::new("peak_rss_mb", "MiB", rss, 1));
    report.push(Metric::new("work_per_s", "1/s", top.images_per_s, top.n));
    report.detail(stat("req_p50_ms", "ms", &nominal.latency_ms, 50.0));
    report.detail(stat("req_p99_ms", "ms", &nominal.latency_ms, 99.0));
    report.detail(
        stat("req_tail_ms", "ms", &nominal.latency_ms, tail_p).with_note(format!("p{tail_p}")),
    );
    report.detail(stat("light_p99_ms", "ms", &nominal.light_ms, 99.0));
    report.detail(
        Metric::new("max_rate_rps", "1/s", max_rate, rungs.len())
            .with_note(format!("limit p99 <= {LIMIT_MS} ms")),
    );
    report.detail(Metric::new("images_per_s", "1/s", top.images_per_s, top.n));
    for r in &rungs {
        let tag = format!("rung.{}rps", r.rate);
        report.detail(stat(&format!("{tag}.p50_ms"), "ms", &r.latency_ms, 50.0));
        report.detail(stat(&format!("{tag}.p90_ms"), "ms", &r.latency_ms, 90.0));
        report.detail(stat(&format!("{tag}.p99_ms"), "ms", &r.latency_ms, 99.0));
        report.detail(stat(
            &format!("{tag}.generator_late_p99_ms"),
            "ms",
            &r.late_ms,
            99.0,
        ));
        report.detail(Metric::new(
            &format!("{tag}.drain_ms"),
            "ms",
            r.drain_ms,
            r.n,
        ));
        report.detail(Metric::new(
            &format!("{tag}.busy_frac"),
            "1",
            r.busy_frac,
            r.n,
        ));
        report.detail(Metric::new(
            &format!("{tag}.failed"),
            "count",
            r.failed as f64,
            r.n,
        ));
    }
    if trace.is_some() {
        report.layers.extend(layer_metrics(&rungs));
    }
    report
}

/// The serve layer's per-layer metrics, from the nominal rung, plus the
/// request latencies (too unsteady on a shared host to gate end to end).
pub fn layer_metrics(rungs: &[Rung]) -> Vec<Metric> {
    let r = &rungs[NOMINAL];
    vec![
        stat("serve.req_p50_ms", "ms", &r.latency_ms, 50.0),
        stat("serve.req_p99_ms", "ms", &r.latency_ms, 99.0),
        stat("serve.light_p99_ms", "ms", &r.light_ms, 99.0),
        Metric::new("serve.max_rate_rps", "1/s", max_rate(rungs), rungs.len()),
        stat("serve.admit_wait_ms.p50", "ms", &r.admit_wait_ms, 50.0),
        stat("serve.admit_wait_ms.p99", "ms", &r.admit_wait_ms, 99.0),
        stat("serve.wait_ms.p99", "ms", &r.wait_ms, 99.0),
        Metric::new("serve.busy_frac", "1", r.busy_frac, r.n),
        Metric::new("serve.cache_miss_frac", "1", r.cache_miss_frac, r.n),
    ]
}
