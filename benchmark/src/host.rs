//! The host-noise guard: what else the machine was doing while a phase
//! was measured.
//!
//! It reads only `/proc` — nothing from the program under test — so it
//! cannot favour one build over another.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/stat` and `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every Linux this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// A phase is disturbed when stolen plus foreign CPU time exceeds this
/// share of the core-time it had.
pub const DISTURBED_SHARE: f64 = 0.05;

/// Threads the load generator may use, and the cores the guard scales
/// core-time by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run a fixed arithmetic kernel on every core at once; returns the
/// slowest thread's time. The same work every time, so a slow reading
/// says the host is slow right now, before any workload runs.
pub fn calibrate() -> Duration {
    let threads = nproc();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t as u64;
                    let mut acc = 0.0f64;
                    for _ in 0..12_000_000u32 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        acc += (x >> 40) as f64 * 1e-9;
                    }
                    std::hint::black_box(acc)
                })
            })
            .collect();
        for h in handles {
            h.join().expect("calibration thread panicked");
        }
    });
    start.elapsed()
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `(busy, steal)` ticks of the whole machine from the first line of
/// `/proc/stat`. Busy excludes idle, iowait and steal.
fn machine_ticks() -> Option<(u64, u64)> {
    let stat = read("/proc/stat")?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    (f.len() >= 8).then(|| (f[0] + f[1] + f[2] + f[5] + f[6], f[7]))
}

/// CPU ticks of one process from `/proc/<pid>/stat`: its own threads
/// and, with `with_children`, the children it has already reaped.
fn process_ticks(pid: &str, with_children: bool) -> Option<u64> {
    let stat = read(&format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after ")".
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ... utime(11) stime(12) cutime(13) cstime(14)
    let at = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok());
    let own = at(11)? + at(12)?;
    Some(if with_children {
        own + at(13)? + at(14)?
    } else {
        own
    })
}

/// Peak resident set of a process in MB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = read(&format!("/proc/{pid}/status"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A reading of the machine's and the benchmark's CPU clocks.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock {
    at: Instant,
    busy: u64,
    steal: u64,
    ours: u64,
}

impl CpuClock {
    /// Read the clocks. `servers` are the live server processes; the
    /// benchmark's own time includes servers it has already reaped.
    pub fn now(servers: &[u32]) -> Option<CpuClock> {
        let (busy, steal) = machine_ticks()?;
        let mut ours = process_ticks("self", true)?;
        for pid in servers {
            ours += process_ticks(&pid.to_string(), false).unwrap_or(0);
        }
        Some(CpuClock {
            at: Instant::now(),
            busy,
            steal,
            ours,
        })
    }
}

/// What the host did during one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Stolen time as a percentage of the phase's core-time.
    pub steal_pct: f64,
    /// CPU time of processes other than the benchmark and its
    /// servers, as a percentage of the phase's core-time.
    pub foreign_pct: f64,
}

impl Disturbance {
    /// Compare two clock readings taken around a phase. A server killed
    /// and reaped inside the phase moves its ticks from the live list
    /// to the benchmark's reaped-children total, so it is counted once
    /// either way.
    pub fn between(before: &CpuClock, after: &CpuClock) -> Disturbance {
        let core_ticks = (after.at - before.at).as_secs_f64() * TICKS_PER_SECOND * nproc() as f64;
        let busy = after.busy.saturating_sub(before.busy);
        let ours = after.ours.saturating_sub(before.ours);
        let pct = |ticks: u64| {
            if core_ticks > 0.0 {
                100.0 * ticks as f64 / core_ticks
            } else {
                0.0
            }
        };
        Disturbance {
            steal_pct: pct(after.steal.saturating_sub(before.steal)),
            foreign_pct: pct(busy.saturating_sub(ours)),
        }
    }

    /// Whether the phase should be measured again.
    pub fn disturbed(&self) -> bool {
        self.steal_pct + self.foreign_pct > 100.0 * DISTURBED_SHARE
    }
}

/// Accumulates the guard's verdicts over a run.
#[derive(Debug, Default, Clone)]
pub struct Guard {
    /// Largest steal share seen in any phase, percent.
    pub worst_steal_pct: f64,
    /// Largest foreign CPU share seen in any phase, percent.
    pub worst_foreign_pct: f64,
    /// Phases measured again because the host disturbed them.
    pub retries: u32,
    /// `(phase, value)` of every measurement thrown away.
    pub discarded: Vec<(String, f64)>,
}

impl Guard {
    /// Re-runs allowed in one run. A bound on the whole run, not per
    /// phase: a host that is noisy throughout must not triple the run
    /// time.
    pub const MAX_RETRIES: u32 = 2;

    /// Record a reading of a phase that cannot be measured again (the
    /// write cycles move the state forward).
    pub fn note(&mut self, d: Option<Disturbance>) {
        if let Some(d) = d {
            self.worst_steal_pct = self.worst_steal_pct.max(d.steal_pct);
            self.worst_foreign_pct = self.worst_foreign_pct.max(d.foreign_pct);
        }
    }

    /// Record a phase's reading; returns whether to measure it again.
    /// `value` is what the phase measured, kept if it is discarded.
    pub fn observe(&mut self, phase: &str, d: Option<Disturbance>, value: f64) -> bool {
        self.note(d);
        let Some(d) = d else { return false };
        let again = d.disturbed() && self.retries < Self::MAX_RETRIES;
        if again {
            self.retries += 1;
            self.discarded.push((phase.to_string(), value));
        }
        again
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_its_own_clocks() {
        let a = CpuClock::now(&[]).expect("/proc is readable");
        let spent = calibrate();
        let b = CpuClock::now(&[]).unwrap();
        assert!(spent > Duration::ZERO);
        assert!(b.ours > a.ours, "calibration burned no cpu?");
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }

    #[test]
    fn guard_retries_at_most_twice() {
        let noisy = Some(Disturbance {
            steal_pct: 4.0,
            foreign_pct: 3.0,
        });
        let quiet = Some(Disturbance {
            steal_pct: 1.0,
            foreign_pct: 1.0,
        });
        let mut g = Guard::default();
        assert!(!g.observe("a", quiet, 1.0));
        assert!(g.observe("a", noisy, 2.0));
        assert!(g.observe("b", noisy, 3.0));
        assert!(!g.observe("c", noisy, 4.0));
        assert_eq!(g.retries, 2);
        assert_eq!(g.discarded, vec![("a".into(), 2.0), ("b".into(), 3.0)]);
        assert_eq!(g.worst_steal_pct, 4.0);
    }
}
