//! Command-line front end for the trace crate.
//!
//! ```text
//! trace record --workload "Asset Compression" --seed 7 --scale 1 --out t.trc
//! trace record --scenario oob-contain --seed 11 --out oob.trc
//! trace replay --in t.trc --backend lock-free
//! trace diff   --in t.trc            # nonzero exit on mismatch
//! trace dump   --in t.trc
//! ```

use std::process::ExitCode;

use trace::{diff, record_oob_contain, record_spurious, record_workload, replay, Trace};
use workloads::Backend;

const USAGE: &str = "\
usage: trace <command> [options]

commands:
  record   capture a fixed-seed scenario into a trace file
             --workload NAME     record a workloads kernel (see crates/workloads)
             --scenario NAME     oob-contain | spurious-inject
             --seed N            deterministic seed (default 7)
             --scale N           workload scale (default 1)
             --out FILE          output path (required)
  replay   re-drive a trace against one backend and print its digest
             --in FILE           trace file (required)
             --backend NAME      two-tier | lock-free | global | guarded
                                 (default two-tier)
  diff     replay across every backend; exit 1 if outcomes diverge
             --in FILE           trace file (required)
  dump     print the header and decoded event stream
             --in FILE           trace file (required)

This replays the *event* log. The stress binary's --schedule-replay is a
different mechanism (it re-derives per-thread schedules from a seed);
see README \"Record & replay\".";

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let f = &raw[i];
            if !f.starts_with("--") {
                return Err(format!("unexpected argument {f:?}"));
            }
            let v = raw
                .get(i + 1)
                .ok_or_else(|| format!("{f} needs a value"))?;
            flags.push((f[2..].to_owned(), v.clone()));
            i += 2;
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().ok_or_else(|| USAGE.to_owned())?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "record" => {
            let seed = args.u64_or("seed", 7)?;
            let out = args.require("out")?;
            let trace = match (args.get("workload"), args.get("scenario")) {
                (Some(w), None) => {
                    let scale = args.u64_or("scale", 1)? as u32;
                    record_workload(w, seed, scale)?
                }
                (None, Some("oob-contain")) => record_oob_contain(seed),
                (None, Some("spurious-inject")) => record_spurious(seed),
                (None, Some(s)) => return Err(format!("unknown scenario {s:?}")),
                _ => return Err("record needs exactly one of --workload / --scenario".into()),
            };
            trace.save(out).map_err(|e| format!("{out}: {e}"))?;
            println!(
                "recorded {:?}: {} event(s) -> {out}",
                trace.header.label,
                trace.events.len()
            );
            Ok(())
        }
        "replay" => {
            let trace = load(args.require("in")?)?;
            let backend = match args.get("backend") {
                None => Backend::TwoTier,
                Some(b) => Backend::parse(b).ok_or_else(|| format!("unknown backend {b:?}"))?,
            };
            let digest = replay(&trace, backend).map_err(|e| e.to_string())?;
            println!("{digest}");
            Ok(())
        }
        "diff" => {
            let trace = load(args.require("in")?)?;
            let report = diff(&trace).map_err(|e| e.to_string())?;
            println!("{report}");
            if report.is_match() {
                Ok(())
            } else {
                Err(format!("{:?}: backends diverged", trace.header.label))
            }
        }
        "dump" => {
            let trace = load(args.require("in")?)?;
            let h = &trace.header;
            println!(
                "label {:?} scheme {:?} tcf {} check_jni {} policy {} seed {} plan {:?}",
                h.label, h.scheme, h.tcf_mode, h.check_jni, h.fault_policy, h.seed, h.plan
            );
            for r in &trace.events {
                println!("{:>6} t{} {:?}", r.seq, r.tid, r.event);
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
