//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the paper has a Criterion bench target in
//! `benches/`; each target
//!
//! 1. regenerates its table / figure once and prints the rows or series in
//!    the same layout the paper uses, and
//! 2. benchmarks the representative inner kernel of that experiment with
//!    Criterion, so `cargo bench` also reports stable timing numbers.
//!
//! By default the experiments run at a reduced-but-faithful scale so a full
//! `cargo bench --workspace` completes in minutes. Set the environment
//! variable `MICRONAS_PAPER_SCALE=1` to run the paper-scale configuration
//! (batch-32 NTK on the 16×16 proxy networks) instead.

use micronas::{BatchStats, EvalCacheStats, MicroNasConfig};
use std::path::{Path, PathBuf};

/// Returns the experiment configuration for benchmark runs.
///
/// Reduced scale (default) uses the batch-12 NTK on 12×12 proxies; paper
/// scale (`MICRONAS_PAPER_SCALE=1`) uses the batch-32 NTK on 16×16 proxies,
/// matching the setting the paper adopts.
pub fn bench_config() -> MicroNasConfig {
    if paper_scale() {
        MicroNasConfig::paper_default()
    } else {
        MicroNasConfig::fast()
    }
}

/// Whether paper-scale mode was requested via `MICRONAS_PAPER_SCALE=1`.
pub fn paper_scale() -> bool {
    std::env::var("MICRONAS_PAPER_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Number of architectures sampled for correlation experiments at the current
/// scale.
pub fn correlation_sample_size() -> usize {
    if paper_scale() {
        200
    } else {
        64
    }
}

/// Writes benchmark numbers to the bench JSON directory
/// (`<target>/bench-json/<name>.json`, where `<target>` is
/// `$CARGO_TARGET_DIR` or else the `target` directory holding the running
/// binary), one flat object of numeric fields plus
/// the scale the numbers were measured at. Hand-rolled JSON: the workspace's
/// `serde` is an offline no-op shim, and a flat `f64` map needs nothing more.
///
/// The directory is created (`create_dir_all`) before writing, so benches
/// can record from a pristine checkout.
///
/// Duplicate field keys would silently produce invalid JSON (most parsers
/// keep only one of the values), so they are resolved **last-write-wins**
/// with a warning on stderr; fields that collide with the reserved header
/// keys (`"bench"`, `"scale"`) are dropped with a warning — the header is
/// authoritative.
///
/// # Errors
///
/// Returns the underlying [`std::io::Error`] when the directory cannot be
/// created or the file cannot be written. Bench targets report the error
/// (see [`record_bench_json`]) rather than panicking — a benchmark must
/// never die because recording failed.
pub fn write_bench_json<S: AsRef<str>>(
    name: &str,
    fields: &[(S, f64)],
) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = bench_json_dir(
        std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from),
        &exe,
    );
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));

    let mut ordered: Vec<(&str, f64)> = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        let key = key.as_ref();
        if key == "bench" || key == "scale" {
            eprintln!(
                "warning: bench json field {key:?} in {name} collides with a \
                 reserved header key; dropping it"
            );
            continue;
        }
        if let Some(slot) = ordered.iter_mut().find(|(k, _)| *k == key) {
            eprintln!(
                "warning: duplicate bench json field {key:?} in {name}; \
                 keeping the last value"
            );
            slot.1 = *value;
        } else {
            ordered.push((key, *value));
        }
    }

    let mut body = String::from("{\n");
    body.push_str(&format!(
        "  \"bench\": \"{name}\",\n  \"scale\": \"{}\"",
        if paper_scale() { "paper" } else { "reduced" }
    ));
    for (key, value) in &ordered {
        body.push_str(&format!(",\n  \"{key}\": {value:?}"));
    }
    body.push_str("\n}\n");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// The bench JSON directory, resolved at run time so that a copied tree
/// writes into its own checkout: `$CARGO_TARGET_DIR/bench-json` when the
/// variable is set, otherwise `bench-json` under the nearest `target`
/// ancestor of the running binary (cargo builds benches into
/// `<target>/<profile>/deps/`). A binary outside any `target` directory
/// falls back to `target/bench-json` under the working directory.
fn bench_json_dir(cargo_target_dir: Option<PathBuf>, exe: &Path) -> PathBuf {
    cargo_target_dir
        .or_else(|| {
            exe.ancestors()
                .find(|dir| dir.file_name().is_some_and(|name| name == "target"))
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("bench-json")
}

/// Flattens an [`EvalCacheStats`] into the conventional
/// `{prefix}_hits` / `{prefix}_misses` / `{prefix}_hit_rate` bench-json
/// fields, so every bench target reports cache provenance under the same
/// shape (only the prefix differs).
pub fn cache_stat_fields(prefix: &str, cache: &EvalCacheStats) -> Vec<(String, f64)> {
    vec![
        (format!("{prefix}_hits"), cache.hits as f64),
        (format!("{prefix}_misses"), cache.misses as f64),
        (format!("{prefix}_hit_rate"), cache.hit_rate()),
    ]
}

/// Flattens a [`BatchStats`] into the conventional `{prefix}_dispatches` /
/// `{prefix}_packed_candidates` / `{prefix}_computed_candidates` /
/// `{prefix}_pack_width` / `{prefix}_candidates_per_dispatch` /
/// `{prefix}_fill_rate` bench-json fields, followed by the kernel-level
/// forward/backward pack-fill split (`{prefix}_forward_kernel_dispatches` /
/// `_members` / `_fill`, same for `backward`) so recorded runs show whether
/// the per-sample gradient sweeps merged as densely as the forward probes.
pub fn batch_stat_fields(prefix: &str, batch: &BatchStats) -> Vec<(String, f64)> {
    vec![
        (format!("{prefix}_dispatches"), batch.dispatches as f64),
        (
            format!("{prefix}_packed_candidates"),
            batch.packed_candidates as f64,
        ),
        (
            format!("{prefix}_computed_candidates"),
            batch.computed_candidates as f64,
        ),
        (format!("{prefix}_pack_width"), batch.pack_width as f64),
        (
            format!("{prefix}_candidates_per_dispatch"),
            batch.candidates_per_dispatch(),
        ),
        (format!("{prefix}_fill_rate"), batch.fill_rate()),
        (
            format!("{prefix}_forward_kernel_dispatches"),
            batch.forward_kernel_dispatches as f64,
        ),
        (
            format!("{prefix}_forward_kernel_members"),
            batch.forward_kernel_members as f64,
        ),
        (format!("{prefix}_forward_fill"), batch.forward_fill()),
        (
            format!("{prefix}_backward_kernel_dispatches"),
            batch.backward_kernel_dispatches as f64,
        ),
        (
            format!("{prefix}_backward_kernel_members"),
            batch.backward_kernel_members as f64,
        ),
        (format!("{prefix}_backward_fill"), batch.backward_fill()),
    ]
}

/// [`write_bench_json`] with the standard bench-target reporting: prints the
/// recorded path on success and a diagnostic (without failing the bench) on
/// I/O error.
pub fn record_bench_json<S: AsRef<str>>(name: &str, fields: &[(S, f64)]) {
    match write_bench_json(name, fields) {
        Ok(path) => println!("recorded: {}", path.display()),
        Err(e) => eprintln!("warning: could not record bench json for {name}: {e}"),
    }
}

/// Prints a banner identifying the experiment and its scale.
pub fn banner(experiment: &str, paper_reference: &str) {
    println!();
    println!("================================================================");
    println!("MicroNAS reproduction — {experiment}");
    println!("Reproduces: {paper_reference}");
    println!(
        "Scale: {}",
        if paper_scale() {
            "paper (MICRONAS_PAPER_SCALE=1)"
        } else {
            "reduced (default)"
        }
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_reduced() {
        // The environment variable is not set in the test environment.
        if std::env::var("MICRONAS_PAPER_SCALE").is_err() {
            assert!(!paper_scale());
            assert_eq!(correlation_sample_size(), 64);
            assert_eq!(bench_config(), MicroNasConfig::fast());
        }
    }

    #[test]
    fn banner_does_not_panic() {
        banner("test", "none");
    }

    #[test]
    fn bench_json_is_written_and_well_formed() {
        let path = write_bench_json("lib_test_smoke", &[("alpha", 1.25), ("beta", 3.0)])
            .expect("bench json must be writable in the test environment");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"lib_test_smoke\""));
        assert!(body.contains("\"alpha\": 1.25"));
        assert!(body.contains("\"beta\": 3.0"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bench_json_dir_follows_the_running_binary() {
        let exe = Path::new("/copy/of/repo/target/release/deps/ntk_engine-0123");
        assert_eq!(
            bench_json_dir(None, exe),
            Path::new("/copy/of/repo/target/bench-json")
        );
        // An explicit target directory wins over the binary's location.
        assert_eq!(
            bench_json_dir(Some(PathBuf::from("/elsewhere")), exe),
            Path::new("/elsewhere/bench-json")
        );
        // The nearest `target` ancestor, not one further up.
        let nested = Path::new("/target/work/target/debug/deps/b");
        assert_eq!(
            bench_json_dir(None, nested),
            Path::new("/target/work/target/bench-json")
        );
        assert_eq!(
            bench_json_dir(None, Path::new("/usr/local/bin/bench")),
            Path::new("target/bench-json")
        );
    }

    #[test]
    fn duplicate_bench_json_keys_resolve_last_write_wins() {
        let path = write_bench_json(
            "lib_test_duplicate",
            &[("alpha", 1.0), ("beta", 2.0), ("alpha", 3.0)],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            body.matches("\"alpha\"").count(),
            1,
            "duplicate key must not be emitted twice: {body}"
        );
        assert!(body.contains("\"alpha\": 3.0"), "{body}");
        assert!(body.contains("\"beta\": 2.0"), "{body}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reserved_bench_json_keys_are_dropped() {
        let path =
            write_bench_json("lib_test_reserved", &[("bench", 9.0), ("gamma", 4.0)]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"lib_test_reserved\""), "{body}");
        assert!(!body.contains("\"bench\": 9.0"), "{body}");
        assert!(body.contains("\"gamma\": 4.0"), "{body}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn stat_field_helpers_use_the_conventional_names() {
        let cache = EvalCacheStats { hits: 6, misses: 2 };
        let fields = cache_stat_fields("cache", &cache);
        assert_eq!(
            fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["cache_hits", "cache_misses", "cache_hit_rate"]
        );
        assert_eq!(fields[2].1, 0.75);

        let batch = BatchStats {
            dispatches: 2,
            packed_candidates: 16,
            computed_candidates: 12,
            pack_width: 8,
            forward_kernel_dispatches: 4,
            forward_kernel_members: 20,
            backward_kernel_dispatches: 6,
            backward_kernel_members: 36,
        };
        let fields = batch_stat_fields("batch", &batch);
        assert_eq!(
            fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            [
                "batch_dispatches",
                "batch_packed_candidates",
                "batch_computed_candidates",
                "batch_pack_width",
                "batch_candidates_per_dispatch",
                "batch_fill_rate",
                "batch_forward_kernel_dispatches",
                "batch_forward_kernel_members",
                "batch_forward_fill",
                "batch_backward_kernel_dispatches",
                "batch_backward_kernel_members",
                "batch_backward_fill"
            ]
        );
        assert_eq!(fields[8].1, 5.0);
        assert_eq!(fields[11].1, 6.0);
    }
}
