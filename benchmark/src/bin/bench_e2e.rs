//! `bench_e2e`: run the benchmark.
//!
//! ```text
//! bench_e2e                                   all workloads, untraced then traced
//! bench_e2e --workload NAME --trace 0|1       one run; the last line of stdout is
//!                                             the result object the driver reads
//! bench_e2e --aa                              two untraced sets, compared to the bounds
//! options: --seed N (1)  --seconds S (25)  --out DIR (benchmark/out)
//! ```
//!
//! Exits 0 when every answer was correct, 1 on a wrong answer or a
//! failed A/A comparison, 2 when a run could not be made at all.

use glodyne_benchmark::json;
use glodyne_benchmark::lifecycle::{self, Env, RunOutput};
use glodyne_benchmark::report::{self, Metrics, Stamp};
use glodyne_benchmark::wire::Server;
use glodyne_benchmark::workloads::{self, Workload, RUN_SECONDS, WORKLOADS};
use glodyne_benchmark::{program, replay, stats};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    aa: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        aa: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    workloads::workload(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--aa" => o.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Spawn → first `stats` reply of a server with nothing to warm up:
/// process start, argument parsing, bind. Median of three.
fn cold_start_ms(env: &Env) -> io::Result<f64> {
    let log = env.out.join("cold-start-server.log");
    let args: Vec<String> = ["--policy", "manual", "--dim", "64"]
        .map(String::from)
        .to_vec();
    let mut times = Vec::new();
    for _ in 0..3 {
        let server = Server::spawn(&env.bin, &args, &log)?;
        server.connect()?.call("{\"cmd\":\"stats\"}")?;
        times.push(server.spawned.elapsed().as_secs_f64() * 1e3);
        server.kill()?;
    }
    Ok(stats::median(&times).unwrap_or(0.0))
}

fn print_metrics(w: &Workload, traced: bool, out: &RunOutput, metrics: &Metrics) {
    println!(
        "== {} ({}) attempted {} failed {} correct {}",
        w.name,
        if traced { "traced" } else { "untraced" },
        out.ops.attempted,
        out.ops.failed,
        out.oracle.correct(),
    );
    for (name, (value, unit)) in metrics {
        let detail = out
            .samples
            .get(name)
            .and_then(|v| stats::summarize(v))
            .filter(|s| s.count > 1)
            .map(|s| match s.tail {
                Some((p, v)) => format!("  (n={}, p{p}={v:.4})", s.count),
                None => format!("  (n={})", s.count),
            })
            .unwrap_or_default();
        println!("{name:36} {value:>16.4} {unit}{detail}");
    }
    for failure in out.oracle.failures() {
        println!("ORACLE FAILED: {failure}");
    }
}

struct Harness {
    env: Env,
    root: PathBuf,
    stamps: (String, String, String),
    seed: u64,
    seconds: u64,
}

impl Harness {
    /// One run of one workload: lifecycle, and for a traced run the
    /// in-process replay; prints the metrics and writes the record.
    fn run(&self, w: &Workload, traced: bool) -> io::Result<(RunOutput, Metrics)> {
        let scale = self.seconds as f64 / RUN_SECONDS as f64;
        let mut out = lifecycle::run(w, &self.env, self.seed, scale, traced)?;
        let metrics = if traced {
            let input = out.replay.take().expect("a finished run keeps its input");
            let mut tracer = out.tracer.take().expect("a traced run has a tracer");
            let scratch = self.env.out.join(format!("{}-replay", w.name));
            let layers = replay::replay(w, &input, &scratch, &mut tracer)?;
            let cold = cold_start_ms(&self.env)?;
            let spans = self.env.out.join(format!("{}-trace.json", w.name));
            std::fs::write(&spans, tracer.to_json().to_string())?;
            out.tracer = Some(tracer);
            report::per_layer(&out, &layers, cold)
        } else {
            report::end_to_end(&out)
        };
        print_metrics(w, traced, &out, &metrics);
        let stamp = Stamp {
            commit: &self.stamps.0,
            rustc: &self.stamps.1,
            cpu: &self.stamps.2,
            seed: self.seed,
            seconds: self.seconds,
        };
        let name = if traced {
            format!("{}-traced.json", w.name)
        } else {
            format!("{}.json", w.name)
        };
        let record = report::record(w, &stamp, &out, &metrics, traced);
        std::fs::write(self.env.out.join(name), record.to_string())?;
        Ok((out, metrics))
    }

    /// Two untraced sets of the same build; every end-to-end pair must
    /// agree within its bound.
    fn aa(&self, selected: &[&'static Workload]) -> io::Result<bool> {
        let text = std::fs::read_to_string(self.root.join("BENCHMARK.json"))?;
        let bounds = report::bounds(&json::parse(&text).map_err(io::Error::other)?);
        let mut sets: Vec<Vec<(RunOutput, Metrics)>> = Vec::new();
        for _ in 0..2 {
            sets.push(
                selected
                    .iter()
                    .map(|w| self.run(w, false))
                    .collect::<io::Result<_>>()?,
            );
        }
        let mut pass = true;
        println!("== A/A: two sets of the same build");
        for (i, w) in selected.iter().enumerate() {
            let (first, second) = (&sets[0][i], &sets[1][i]);
            pass &= first.0.oracle.correct() && second.0.oracle.correct();
            for (name, &(a, _)) in &first.1 {
                let b = second.1[name].0;
                let bound = bounds.get(*name).copied().unwrap_or(0.0);
                let (diff, ok) = report::aa_pair(a, b, bound);
                pass &= ok;
                println!(
                    "{:20} {name:16} {a:>14.4} {b:>14.4}  {:>6.2}% of {:>5.1}%  {}",
                    w.name,
                    diff * 100.0,
                    bound * 100.0,
                    if ok { "ok" } else { "OUTSIDE BOUND" },
                );
            }
        }
        println!("A/A {}", if pass { "passed" } else { "FAILED" });
        Ok(pass)
    }
}

fn main_inner(o: &Options) -> io::Result<bool> {
    let root = program::repo_root()?;
    let bin = program::build_server(&root)?;
    std::fs::create_dir_all(&o.out)?;
    let harness = Harness {
        env: Env {
            bin,
            out: o.out.clone(),
        },
        stamps: program::stamps(&root),
        root,
        seed: o.seed,
        seconds: o.seconds,
    };
    let selected: Vec<&'static Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if o.aa {
        return harness.aa(&selected);
    }
    if let Some(w) = o.workload {
        // The driver's form: one run, the result object last.
        let (out, metrics) = harness.run(w, o.trace)?;
        let correct = out.oracle.correct();
        println!(
            "{}",
            report::result_line(correct, out.ops.attempted, out.ops.failed, &metrics)
        );
        return Ok(correct);
    }
    let mut correct = true;
    for traced in [false, true] {
        for w in &selected {
            correct &= harness.run(w, traced)?.0.oracle.correct();
        }
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match main_inner(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
