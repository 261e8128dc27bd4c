//! `serve-healthy` and `serve-faulted`: an in-process `mvml-serve` server
//! on loopback with two trained tenants, `cam-front` and `cam-rear`, one
//! per shard, each fed by one connection.
//!
//! Each request frame carries a 1,024-float image as JSON, so framing is a
//! large share of the request path: frames are encoded once during set-up
//! and the load generator only writes bytes. A closed phase, both
//! connections sending back to back, gives `throughput` and `p50_ms` in
//! both binaries. The traced run adds an open phase: Poisson arrivals on a
//! seeded schedule, each request timed from when it was due.

use crate::nn::{forward_traced, model_metrics, ModelNames};
use crate::trace::{print_derived, Name, SpanId, Tracer};
use crate::{alloc, per_op_us, set_up, stage, stats, stream, timed, Args, Outcome};
use mvml_core::NVersionSystem;
use mvml_faultinject::{RuntimeFault, RuntimeFaultPlan};
use mvml_nn::Tensor;
use mvml_serve::server::{Client, ServerHandle};
use mvml_serve::tenant::{build_system, eval_dataset, fault_plan, tenant_seed};
use mvml_serve::{
    read_frame, validate_report, write_frame, FaultSpec, FaultSpecKind, ModelSpec, ProtoError,
    Request, Response, Service, ServiceConfig, ServiceReport, TenantConfig, VerdictDto,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Service seed: fixes the tenants' fault streams, which are part of the
/// system under test, not of the traffic.
const SERVICE_SEED: u64 = 11;
/// Shards and connections are fixed whatever the core count. Connection
/// `i` serves tenant `i % 2`, one request at a time.
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
const MAX_BATCH: usize = 8;
const CLASSES: usize = 43;
const IMAGE: usize = 32;
/// Distinct labelled samples per tenant that requests are drawn from.
const POOL: usize = 512;
const POOL_SEED: u64 = 0x5EED;
/// Open-phase arrival rate over both connections, requests per second.
const OPEN_RATE: f64 = 400.0;
/// Untimed requests over both connections before the timed phases.
const WARMUP: usize = 200;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
const MIN_HEALTHY_ACCURACY: f64 = 0.90;

/// The two tenants; on the faulted workload, the committed `BENCH_serve`
/// faulted scenario: crashes on `cam-front`, latency on `cam-rear`.
fn tenants(faulted: bool) -> Vec<TenantConfig> {
    let tenant = |name: &str, seed: u64| TenantConfig {
        model: ModelSpec::Trained {
            classes: CLASSES,
            image_size: IMAGE,
            train_samples: 1024,
            epochs: 6,
            seed,
        },
        ..TenantConfig::passthrough(name, CLASSES)
    };
    let mut t = vec![tenant("cam-front", 11), tenant("cam-rear", 13)];
    if faulted {
        t[0].fault = Some(FaultSpec {
            kind: FaultSpecKind::Crash,
            rate: 0.3,
            module: None,
        });
        t[1].fault = Some(FaultSpec {
            kind: FaultSpecKind::Latency,
            rate: 0.2,
            module: None,
        });
    }
    t
}

fn config() -> ServiceConfig {
    ServiceConfig {
        seed: SERVICE_SEED,
        shards: SHARDS,
        max_batch: MAX_BATCH,
        ..ServiceConfig::default()
    }
}

/// A tenant's labelled samples with their request frames pre-encoded.
struct Pool {
    tenant: String,
    shape: Vec<usize>,
    labels: Vec<usize>,
    pixels: Vec<Vec<f32>>,
    frames: Vec<Vec<u8>>,
}

fn pool(cfg: &TenantConfig, seed: u64) -> Result<Pool, String> {
    let data = eval_dataset(cfg, POOL, seed).ok_or("a trained tenant has evaluation data")?;
    let mut p = Pool {
        tenant: cfg.name.clone(),
        shape: cfg.model.sample_shape(),
        labels: Vec::new(),
        pixels: Vec::new(),
        frames: Vec::new(),
    };
    for i in 0..data.len() {
        let (x, labels) = data.batch(&[i]);
        let pixels = x.as_slice().to_vec();
        let mut frame = Vec::new();
        let request = Request::Classify {
            tenant: p.tenant.clone(),
            id: i as u64,
            shape: p.shape.clone(),
            pixels: pixels.clone(),
        };
        write_frame(&mut frame, &request).map_err(|e| e.to_string())?;
        p.labels.push(labels[0]);
        p.pixels.push(pixels);
        p.frames.push(frame);
    }
    Ok(p)
}

/// One set-up: `Service::new` trains both tenants, then each tenant's
/// request pool is encoded.
fn setup(faulted: bool) -> Result<(Service, Vec<Pool>), String> {
    let tenants = tenants(faulted);
    let service = Service::new(tenants.clone(), config()).map_err(|e| e.to_string())?;
    let pools = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| pool(t, POOL_SEED + i as u64))
        .collect::<Result<_, _>>()?;
    Ok((service, pools))
}

/// Request outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    correct: u64,
    wrong: u64,
    /// `Skip` and `NoModules` verdicts.
    skipped: u64,
    /// Error and rejected responses, dropped requests, misrouted answers.
    errors: u64,
    misrouted: u64,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.correct + self.wrong + self.skipped + self.errors
    }

    fn add(&mut self, o: &Tally) {
        self.correct += o.correct;
        self.wrong += o.wrong;
        self.skipped += o.skipped;
        self.errors += o.errors;
        self.misrouted += o.misrouted;
    }

    /// Scores the response to request `idx` of `pool`; `Err` when the
    /// connection is unusable.
    fn score(
        &mut self,
        response: Result<Option<Response>, ProtoError>,
        pool: &Pool,
        idx: usize,
    ) -> Result<(), String> {
        match response {
            Ok(Some(Response::Classified {
                id,
                tenant,
                verdict,
                ..
            })) => {
                if id != idx as u64 || tenant != pool.tenant {
                    self.misrouted += 1;
                    self.errors += 1;
                    return Ok(());
                }
                match verdict {
                    VerdictDto::Output { class } if class == pool.labels[idx] => self.correct += 1,
                    VerdictDto::Output { .. } => self.wrong += 1,
                    VerdictDto::Skip | VerdictDto::NoModules => self.skipped += 1,
                    VerdictDto::Dropped | VerdictDto::Rejected { .. } => self.errors += 1,
                }
                Ok(())
            }
            Ok(Some(_)) => {
                self.errors += 1;
                Ok(())
            }
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("transport: {e}")),
        }
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` once per connection index on its own thread.
fn each_connection<T: Send>(
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|i| {
                let f = &f;
                s.spawn(move || f(i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect()
    })
}

/// Closed loop on one connection: send, wait for the answer, repeat,
/// until `deadline` or `limit` requests. Request `k` goes to
/// `pools[k % pools.len()]`. Returns when each request was sent and when
/// its answer was decoded.
fn closed_loop(
    stream: &TcpStream,
    pools: &[&Pool],
    rng: &mut StdRng,
    deadline: Instant,
    limit: usize,
    tally: &mut Tally,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut requests = Vec::new();
    while requests.len() < limit && Instant::now() < deadline {
        let pool = pools[requests.len() % pools.len()];
        let idx = rng.random_range(0..pool.frames.len());
        let sent = Instant::now();
        writer
            .write_all(&pool.frames[idx])
            .map_err(|e| e.to_string())?;
        let response = read_frame(&mut reader);
        requests.push((sent, Instant::now()));
        tally.score(response, pool, idx)?;
    }
    Ok(requests)
}

/// The open phase on one connection.
struct Open {
    /// Per request, ms from its due time to its decoded response.
    latencies: Vec<f64>,
    /// Per request, ms by which the sender wrote it after its due time.
    late: Vec<f64>,
}

/// Open loop on one connection: Poisson arrivals at `rate` from `start`
/// for `duration`, written on schedule by a sender thread whatever the
/// server's progress, while this thread reads the answers.
fn open_loop(
    stream: &TcpStream,
    pool: &Pool,
    rng: &mut StdRng,
    start: Instant,
    duration: Duration,
    rate: f64,
    tally: &mut Tally,
) -> Result<Open, String> {
    let mut schedule = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.random::<f64>()).ln() / rate;
        if at >= duration.as_secs_f64() {
            break;
        }
        let idx = rng.random_range(0..pool.frames.len());
        schedule.push((start + Duration::from_secs_f64(at), idx));
    }
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    std::thread::scope(|s| {
        let schedule = &schedule;
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(schedule.len());
            for (due, idx) in schedule {
                let now = Instant::now();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                late.push(ms(Instant::now().saturating_duration_since(*due)));
                if writer.write_all(&pool.frames[*idx]).is_err() {
                    break;
                }
            }
            late
        });
        let mut latencies = Vec::with_capacity(schedule.len());
        let mut lost = None;
        for (due, idx) in schedule {
            let response = read_frame(&mut reader);
            latencies.push(ms(Instant::now().saturating_duration_since(*due)));
            if let Err(e) = tally.score(response, pool, *idx) {
                // Unblocks the sender if it is still writing.
                let _ = stream.shutdown(Shutdown::Both);
                lost = Some(e);
                break;
            }
        }
        let late = sender
            .join()
            .map_err(|_| "open-loop sender panicked".to_string())?;
        match lost {
            Some(e) => Err(e),
            None => Ok(Open { latencies, late }),
        }
    })
}

/// Untimed warm-up over every connection.
fn warm_up(conns: &[TcpStream], pools: &[Pool], seed: u64) -> Result<(), String> {
    each_connection(|i| {
        let mut discard = Tally::default();
        let far = Instant::now() + Duration::from_secs(120);
        closed_loop(
            &conns[i],
            &[&pools[i % 2]],
            &mut stream(seed, 0x100 + i as u64),
            far,
            WARMUP / CONNECTIONS,
            &mut discard,
        )
    })
    .map(|_| ())
}

/// The closed phase: every connection sends back to back, each waiting
/// for its answer, for `duration`. Returns each request's latency in ms,
/// the seconds from the start to the last answer, and the outcomes.
fn closed_phase(
    conns: &[TcpStream],
    pools: &[Pool],
    seed: u64,
    duration: Duration,
) -> Result<(Vec<f64>, f64, Tally), String> {
    let start = Instant::now();
    let runs = each_connection(|i| {
        let mut tally = Tally::default();
        let requests = closed_loop(
            &conns[i],
            &[&pools[i % 2]],
            &mut stream(seed, 0x300 + i as u64),
            start + duration,
            usize::MAX,
            &mut tally,
        )?;
        Ok((requests, tally))
    })?;
    let (mut latencies, mut last, mut tally) = (Vec::new(), start, Tally::default());
    for (requests, t) in runs {
        latencies.extend(requests.iter().map(|&(sent, done)| ms(done - sent)));
        last = requests
            .iter()
            .map(|&(_, done)| done)
            .fold(last, Instant::max);
        tally.add(&t);
    }
    Ok((latencies, (last - start).as_secs_f64(), tally))
}

/// The open phase over every connection: merged latencies, lateness and
/// outcomes.
fn open_phase(
    conns: &[TcpStream],
    pools: &[Pool],
    seed: u64,
    duration: Duration,
) -> Result<(Open, Tally), String> {
    let start = Instant::now() + Duration::from_millis(5);
    let runs = each_connection(|i| {
        let mut tally = Tally::default();
        let open = open_loop(
            &conns[i],
            &pools[i % 2],
            &mut stream(seed, 0x200 + i as u64),
            start,
            duration,
            OPEN_RATE / CONNECTIONS as f64,
            &mut tally,
        )?;
        Ok((open, tally))
    })?;
    let mut merged = Open {
        latencies: Vec::new(),
        late: Vec::new(),
    };
    let mut tally = Tally::default();
    for (open, t) in runs {
        merged.latencies.extend(open.latencies);
        merged.late.extend(open.late);
        tally.add(&t);
    }
    Ok((merged, tally))
}

/// Checks shared by both binaries on the final report and the outcomes.
fn check_outcomes(out: &mut Outcome, report: &ServiceReport, tally: &Tally, faulted: bool) {
    out.check("report-validates", validate_report(report).is_ok());
    out.check("answers-routed-to-their-requests", tally.misrouted == 0);
    let accuracy = stats::ratio(tally.correct, tally.attempted());
    if faulted {
        let panics: u64 = report.tenants.iter().map(|t| t.panics).sum();
        let rejuvenations: u64 = report.tenants.iter().map(|t| t.rejuvenations).sum();
        out.check("faults-fired-panics", panics > 0);
        out.check("faults-fired-rejuvenations", rejuvenations > 0);
    } else {
        out.check(
            "healthy-accuracy-at-least-0.90",
            accuracy >= MIN_HEALTHY_ACCURACY,
        );
        out.check("healthy-no-errors", tally.errors == 0);
    }
    out.attempted = tally.attempted();
    out.failed = tally.errors;
    out.set("serve.accuracy", accuracy);
    out.set(
        "serve.error_rate",
        stats::ratio(tally.errors, tally.attempted()),
    );
    out.set(
        "serve.skip_rate",
        stats::ratio(tally.skipped, tally.attempted()),
    );
}

/// Starts a server on `service`, runs `load` against it, then shuts the
/// server down and returns its final report along with the load's result.
fn with_server<T>(
    service: Service,
    load: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<(T, ServiceReport), String> {
    let server = ServerHandle::start(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let result = load(server.local_addr());
    server.request_shutdown();
    let (report, _) = server.join().map_err(|e| e.to_string())?;
    Ok((result?, report))
}

/// The end-to-end run: the closed phase on both connections.
pub fn run(args: &Args, faulted: bool) -> Result<Outcome, String> {
    let ((service, pools), setup_s) = set_up(|| setup(faulted))?;

    let ((latencies, busy_s, tally), report) = with_server(service, |addr| {
        let conns = (0..CONNECTIONS)
            .map(|_| connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        warm_up(&conns, &pools, args.seed)?;
        closed_phase(
            &conns,
            &pools,
            args.seed,
            Duration::from_secs_f64(args.seconds),
        )
    })?;

    let mut out = Outcome::default();
    check_outcomes(&mut out, &report, &tally, faulted);
    out.set_speed(&latencies, busy_s);
    out.set("setup_s", setup_s);
    out.set("rss_mb", crate::peak_rss_mib().ok_or("VmHWM unavailable")?);
    Ok(out)
}

/// Span names of one in-process request.
struct StageNames {
    encode: Name,
    root: Name,
    req_decode: Name,
    submit: Name,
    run_round: Name,
    resp_encode: Name,
    resp_decode: Name,
}

impl StageNames {
    fn new(t: &Tracer) -> Self {
        StageNames {
            encode: t.name("serve.proto.req_encode"),
            root: t.name("serve.request"),
            req_decode: t.name("serve.proto.req_decode"),
            submit: t.name("serve.admission.submit"),
            run_round: t.name("serve.service.run_round"),
            resp_encode: t.name("serve.proto.resp_encode"),
            resp_decode: t.name("serve.proto.resp_decode"),
        }
    }
}

/// One encoded request through the public calls the server and client
/// make, without sockets, threads or channels: decode, submit, one
/// service round, then encode and decode the answer.
fn stage_op(
    service: &mut Service,
    wire: &[u8],
    probe: Option<(&Tracer, SpanId)>,
    n: &StageNames,
) -> Result<Response, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let decoded: Option<Request> =
        stage(probe, n.req_decode, || read_frame(&mut &wire[..])).map_err(|e| err(&e))?;
    let Some(Request::Classify {
        tenant,
        id,
        shape,
        pixels,
    }) = decoded
    else {
        return Err("request did not survive its round trip".to_string());
    };
    stage(probe, n.submit, || {
        service.submit(&tenant, id, &shape, pixels)
    })
    .map_err(|e| err(&e))?;
    let answers = stage(probe, n.run_round, || service.run_round()).map_err(|e| err(&e))?;
    let answer = answers
        .into_iter()
        .find(|a| a.id == id)
        .ok_or("the round did not answer the request")?;
    let response = Response::Classified {
        id,
        tenant,
        verdict: answer.verdict,
        round: answer.round,
    };
    let mut reply = Vec::new();
    stage(probe, n.resp_encode, || write_frame(&mut reply, &response)).map_err(|e| err(&e))?;
    let decoded: Option<Response> =
        stage(probe, n.resp_decode, || read_frame(&mut reply.as_slice())).map_err(|e| err(&e))?;
    decoded.ok_or_else(|| "response did not survive its round trip".to_string())
}

/// What the traced run's TCP phases measured.
struct TcpPhases {
    open: Open,
    /// Closed-phase latencies in ms and the phase's seconds.
    closed: (Vec<f64>, f64),
    tally: Tally,
    stats: ServiceReport,
    one_conn_us: Vec<f64>,
    allocs: (u64, u64),
}

/// The layer decomposition: TCP phases against one service (open loop
/// for lateness and queueing, the closed phase, then one connection for
/// the whole-request latency the in-process stages are compared with),
/// in-process stages
/// against a second service, and classifier replays on separately built
/// tenant systems.
pub fn run_traced(args: &Args, faulted: bool, t: &Tracer) -> Result<Outcome, String> {
    let (service, pools) = setup(faulted)?;
    let mut staged = Service::new(tenants(faulted), config()).map_err(|e| e.to_string())?;
    let mut systems: Vec<NVersionSystem> = Vec::new();
    let mut plans: Vec<Option<RuntimeFaultPlan>> = Vec::new();
    for (i, cfg) in tenants(faulted).iter().enumerate() {
        let mut system = build_system(cfg).map_err(|e| e.to_string())?;
        let plan = cfg
            .fault
            .map(|spec| fault_plan(&spec, tenant_seed(SERVICE_SEED, i)));
        system.set_fault_plan(plan.clone());
        systems.push(system);
        plans.push(plan);
    }
    let span = |share: f64| Duration::from_secs_f64(args.seconds * share);

    let (tcp, report) = with_server(service, |addr| {
        let conns = (0..CONNECTIONS)
            .map(|_| connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        warm_up(&conns, &pools, args.seed)?;
        let (open, mut tally) = open_phase(&conns, &pools, args.seed, span(0.35))?;
        let stats = Client::connect(&addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| e.to_string())?;
        let (latencies, busy_s, closed_tally) =
            closed_phase(&conns, &pools, args.seed, span(0.15))?;
        tally.add(&closed_tally);
        let (a0, b0) = alloc::snapshot();
        let one_conn = closed_loop(
            &conns[0],
            &[&pools[0], &pools[1]],
            &mut stream(args.seed, 0x400),
            Instant::now() + span(0.15),
            usize::MAX,
            &mut tally,
        )?;
        let (a1, b1) = alloc::snapshot();
        Ok(TcpPhases {
            open,
            closed: (latencies, busy_s),
            tally,
            stats,
            one_conn_us: one_conn
                .iter()
                .map(|&(sent, done)| (done - sent).as_secs_f64() * 1e6)
                .collect(),
            allocs: (a1 - a0, b1 - b0),
        })
    })?;

    let mut out = Outcome::default();
    check_outcomes(&mut out, &report, &tcp.tally, faulted);
    let requests = tcp.one_conn_us.len() as u64;
    out.set("alloc.per_op", tcp.allocs.0 as f64 / requests.max(1) as f64);
    out.set(
        "alloc.bytes_per_op",
        tcp.allocs.1 as f64 / requests.max(1) as f64,
    );
    out.set_speed(&tcp.closed.0, tcp.closed.1);
    out.set_percentile("serve.open_p50_ms", &tcp.open.latencies, 50);
    out.set_percentile("p99_ms", &tcp.open.latencies, 99);
    out.set_percentile("loadgen.late_p99_ms", &tcp.open.late, 99);
    let p99_rounds = tcp.stats.tenants.iter().map(|r| r.round_latency.p99_rounds);
    out.set(
        "serve.admission.wait_rounds_p99",
        p99_rounds.max().unwrap_or(0) as f64,
    );
    let (answered, rounds) = tcp
        .stats
        .tenants
        .iter()
        .fold((0, 0), |(a, r), t| (a + t.requests, r + t.rounds));
    out.set("serve.service.batch_mean", stats::ratio(answered, rounds));

    // In-process stages, every other pair of requests traced. The client
    // side encodes its request as its own op: the load generator sends
    // frames encoded during set-up, so encoding is not on the TCP path.
    let n = StageNames::new(t);
    let mut rng = stream(args.seed, 0x500);
    let (mut traced_us, mut plain_us, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let deadline = Instant::now() + span(0.15);
    let mut k = 0u64;
    let mut stage_misrouted = 0;
    while Instant::now() < deadline {
        let pool = &pools[(k % 2) as usize];
        let idx = rng.random_range(0..pool.pixels.len());
        let request = Request::Classify {
            tenant: pool.tenant.clone(),
            id: k,
            shape: pool.shape.clone(),
            pixels: pool.pixels[idx].clone(),
        };
        let traced = (k / 2) % 2 == 0;
        let mut wire = Vec::new();
        let encode = traced.then(|| t.begin(n.encode));
        write_frame(&mut wire, &request).map_err(|e| e.to_string())?;
        if let Some(root) = encode {
            t.end(root);
        }
        let response = if traced {
            let root = t.begin(n.root);
            let result = stage_op(&mut staged, &wire, Some((t, root)), &n);
            traced_us.push(t.end(root) as f64 / 1e3);
            result?
        } else {
            let (result, secs) = timed(|| stage_op(&mut staged, &wire, None, &n));
            plain_us.push(secs * 1e6);
            result?
        };
        if !matches!(response, Response::Classified { id, .. } if id == k) {
            stage_misrouted += 1;
        }
        bytes += wire.len();
        k += 1;
    }
    out.check("in-process-answers-routed", stage_misrouted == 0);
    let k_staged = k;
    let ops = t.ops(n.root);
    let stages = [
        ("serve.proto.req_encode_us", n.encode),
        ("serve.proto.req_decode_us", n.req_decode),
        ("serve.admission.submit_us", n.submit),
        ("serve.service.run_round_us", n.run_round),
        ("serve.proto.resp_encode_us", n.resp_encode),
        ("serve.proto.resp_decode_us", n.resp_decode),
    ];
    for (metric, name) in stages {
        out.set(metric, per_op_us(t, name, ops));
    }
    out.set("serve.proto.req_bytes", bytes as f64 / k.max(1) as f64);
    let tcp_us = tcp.one_conn_us.iter().sum::<f64>() / requests.max(1) as f64;
    let staged_us = per_op_us(t, n.root, ops);
    out.set("serve.unaccounted_us", tcp_us - staged_us);
    // Not a checked breakdown: on the TCP path decoding runs on a handler
    // thread and classification on a shard worker, so the in-process
    // stages can cost more than the whole request.
    out.notes.push(format!(
        "serve.unaccounted_us: one-connection TCP request {tcp_us:.1} us - in-process stages \
         {staged_us:.1} us (sockets, channels, round coalescing, thread hand-offs)"
    ));
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced_us) / stats::median(&plain_us) - 1.0),
    );

    // Classifier replays: the hardened classification, then each model
    // that ran, layer by layer.
    let classify = t.name("core.system.classify");
    let model_names: Vec<ModelNames> = (0..systems[0].version_count())
        .map(|m| ModelNames::new(t, systems[0].module_mut(m).model_mut()))
        .collect();
    let mut macs = vec![0u64; model_names.len()];
    let deadline = Instant::now() + span(0.2);
    let mut k = 0usize;
    while Instant::now() < deadline {
        let (system, plan, pool) = (&mut systems[k % 2], &plans[k % 2], &pools[k % 2]);
        let idx = rng.random_range(0..pool.pixels.len());
        let mut shape = vec![1];
        shape.extend(&pool.shape);
        let x = Tensor::from_vec(&shape, pool.pixels[idx].clone());
        let frame = system.frames_classified();
        let ran: Vec<usize> = (0..system.version_count())
            .filter(|&m| {
                let fault = plan.as_ref().and_then(|p| p.fault_for(m, frame));
                system.module(m).state().is_operational()
                    && !matches!(fault, Some(RuntimeFault::Crash | RuntimeFault::Stale))
            })
            .collect();
        let root = t.begin(classify);
        let report = system.classify_batch_detailed(&x);
        t.end(root);
        // The shard would repair escalated modules a few rounds later;
        // the replay repairs them at once to keep all versions in play.
        for m in report.escalations {
            system.rejuvenate_module(m).map_err(|e| e.to_string())?;
        }
        for m in ran {
            macs[m] += forward_traced(t, &model_names[m], system.module_mut(m).model_mut(), &x);
        }
        k += 1;
    }
    let ops = t.ops(classify);
    let classify_us = per_op_us(t, classify, ops);
    out.set("core.system.classify_us", classify_us);
    for (names, macs) in model_names.iter().zip(&macs) {
        for (metric, value) in model_metrics(t, names, *macs, ops) {
            out.set(&metric, value);
        }
    }
    let forwards: Vec<(String, f64)> = model_names
        .iter()
        .map(|n| (format!("nn.model.{}", n.stem), per_op_us(t, n.root, ops)))
        .collect();
    out.set(
        "core.system.guard_vote_us",
        classify_us - forwards.iter().map(|(_, us)| us).sum::<f64>(),
    );
    let ok = print_derived(
        &mut std::io::stdout(),
        "core.system.classify",
        classify_us,
        &forwards,
    )
    .unwrap_or(false);
    out.check("classify-forwards-within-whole", ok);
    out.notes.push(format!(
        "{} open-phase, {} closed-phase, {requests} one-connection, {k_staged} in-process and \
         {ops} classify requests",
        tcp.open.latencies.len(),
        tcp.closed.0.len(),
    ));
    Ok(out)
}
