//! Host-calibrated end-to-end benchmark of the MTE4JNI reproduction.
//!
//! ```text
//! perfbench --workload <copy-small|copy-large|serving> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` splits time
//! across the JNI layers with spans opened around each layer call, and
//! reads per-layer counts from the program's stats. The last line of
//! stdout is the result as one JSON object. See `README.md`.

mod calib;
mod copy;
mod counts;
mod hist;
mod report;
mod serving;
mod spans;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Recorder;

const USAGE: &str = "usage: perfbench --workload <copy-small|copy-large|serving> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Run settings shared by every workload.
pub struct RunCfg {
    /// Workload name, for output file names.
    pub name: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CopySmall,
    CopyLarge,
    Serving,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "copy-small" => Some(Workload::CopySmall),
            "copy-large" => Some(Workload::CopyLarge),
            "serving" => Some(Workload::Serving),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::CopySmall => "copy-small",
            Workload::CopyLarge => "copy-large",
            Workload::Serving => "serving",
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Workload, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        name: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    cfg.name = workload.label();
    Ok((workload, cfg))
}

/// Where a traced run writes its span logs: beside the build output.
fn spans_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("perfbench-spans"))
}

/// Writes each recorder's span log to its own file; a write failure is
/// reported but does not fail the run.
pub fn write_spans(cfg: &RunCfg, recorders: &[&Recorder]) {
    let Some(dir) = spans_dir() else { return };
    let write = |i: usize, rec: &Recorder| -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}-client{i}.tsv", cfg.name, cfg.seed));
        let mut out = BufWriter::new(File::create(&path)?);
        rec.write_log(&mut out)?;
        out.flush()?;
        Ok(path)
    };
    for (i, rec) in recorders.iter().enumerate() {
        match write(i, rec) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
}

extern "C" {
    /// glibc's allocator tuning call (`malloc.h`).
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its default 128 KiB. Left dynamic, the
/// first free of a fleet's 4 MiB tenant heaps raises it, and later heaps
/// land in the brk arena or in fresh mappings depending on address-space
/// layout, so peak RSS of one binary and seed read 18 or 35 MiB at
/// random. Pinned, every heap is its own mapping, returned on drop.
fn pin_mmap_threshold() {
    // SAFETY: `mallopt` takes two plain integers and only changes
    // allocator tuning; it is called before this process spawns a thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    if ok != 1 {
        eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) failed; mem_mib may vary between runs");
    }
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload {
        Workload::CopySmall => copy::run(copy::SMALL_LEN, &cfg),
        Workload::CopyLarge => copy::run(copy::LARGE_LEN, &cfg),
        Workload::Serving => serving::run(&cfg),
    };
    report.print(cfg.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, cfg) =
            parse_args(&args("--workload serving --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, Workload::Serving);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serving --seed x",
            "--workload serving --seconds 0",
            "--workload serving --trace 2",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
