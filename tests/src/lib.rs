//! Cross-crate integration tests live in this package's `tests/` directory.
//!
//! This library holds the helpers several of them share.

use rtseed::obs::{export, Histogram};
use rtseed::serve::ServeOutcome;

/// Compares `got` byte-for-byte with the checked-in golden file `file`
/// (relative to `tests/golden/`), panicking with the first diverging
/// line. With `RTSEED_REGEN_GOLDEN` set, `got` is written over the file
/// first (see `tests/golden/README.md`); `test` names the test binary for
/// the regeneration hint.
pub fn assert_golden(file: &str, got: &str, test: &str) {
    let path = format!("{}/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("RTSEED_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden file");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with RTSEED_REGEN_GOLDEN=1");
    if got == golden {
        return;
    }
    let diverged = got
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .map(|i| {
            format!(
                "first divergence at line {}:\n  got:    {}\n  golden: {}",
                i + 1,
                got.lines().nth(i).unwrap_or(""),
                golden.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| {
            format!(
                "line counts differ: got {}, golden {}",
                got.lines().count(),
                golden.lines().count()
            )
        });
    panic!(
        "{file} diverged from the golden file — a scheduling decision changed.\n{diverged}\n\
         If the change is intentional, regenerate it with\n\
         `RTSEED_REGEN_GOLDEN=1 cargo test -p integration-tests --test {test}`\n\
         and commit the diff (see tests/golden/README.md)."
    );
}

/// A serving run as JSONL: the exported trace, then one line with the
/// decision counters and one with the deferred-admission latency
/// histogram.
pub fn serve_jsonl(out: &ServeOutcome) -> String {
    let counters = format!("{:?}", out.counters);
    let fields = counters
        .trim_start_matches("ServeCounters { ")
        .trim_end_matches(" }")
        .split(", ")
        .map(|kv| {
            let (k, v) = kv.split_once(": ").expect("`name: value` field");
            format!("\"{k}\":{v}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{}{{\"serve_counters\":{{{fields}}}}}\n{{\"deferred_latency\":{}}}\n",
        export::jsonl(&out.outcome.trace),
        histogram_json(&out.deferred_latency)
    )
}

fn histogram_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h.buckets().iter().map(u64::to_string).collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        buckets.join(",")
    )
}
