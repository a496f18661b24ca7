//! Cluster-wide Prometheus roll-up: merge several scraped exposition
//! texts into one.
//!
//! A gateway fronting N daemons wants a single `/metrics` surface that an
//! operator can scrape without knowing the membership. Each member already
//! renders its own [`crate::Registry`] in Prometheus text exposition; this
//! module merges those texts by **summing samples with the same name and
//! label set** across sources, so `avoc_rounds_fused_total` on the roll-up
//! is the cluster total while `avoc_rounds_fused_total{shard="0"}` stays a
//! per-shard (now cluster-wide per-shard) cell.
//!
//! Summation is the right fold for counters and histogram buckets, and for
//! every gauge this codebase exports (queue depths, session counts,
//! placement gauges — all extensive quantities). `# HELP` / `# TYPE`
//! comments are taken from the first source that defines a family;
//! families and samples keep first-seen order so repeated scrapes diff
//! cleanly.
//!
//! The parser is deliberately forgiving: lines that don't parse as
//! `key value` samples or `# HELP` / `# TYPE` comments are skipped, so a
//! partially garbled member scrape degrades the roll-up instead of
//! failing it.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One merged metric family: comment lines plus summed samples.
#[derive(Debug)]
struct Family {
    name: String,
    help: Option<String>,
    kind: Option<String>,
    /// Sample key (`name{labels}`) → index into `samples`, preserving
    /// first-seen order.
    index: HashMap<String, usize>,
    samples: Vec<(String, f64)>,
}

/// Splits a sample line into `(key, value)`. The value is the text after
/// the last space; Prometheus optional trailing timestamps are not
/// produced by [`crate::Registry::render_prometheus`] and are treated as
/// unparseable here.
fn split_sample(line: &str) -> Option<(&str, f64)> {
    let at = line.rfind(' ')?;
    let (key, value) = (line[..at].trim_end(), line[at + 1..].trim());
    if key.is_empty() {
        return None;
    }
    value.parse::<f64>().ok().map(|v| (key, v))
}

/// The family name of a sample key: everything before the label block.
/// `_bucket` / `_sum` / `_count` histogram suffixes are folded into their
/// base family so a histogram's samples stay grouped under one `# TYPE`.
fn family_of(key: &str) -> &str {
    let name = key.split('{').next().unwrap_or(key);
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if !base.is_empty() {
                return base;
            }
        }
    }
    name
}

/// Renders a merged value: sums of integral samples print as integers
/// (the way [`crate::Registry::render_prometheus`] prints counters and
/// gauges), everything else falls back to `f64` display.
fn render_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parses one exposition text into `(key, value)` samples, comment and
/// blank lines skipped. The gate a roll-up consumer uses to assert that
/// merged totals equal the sum of member scrapes.
pub fn parse_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| split_sample(l).map(|(k, v)| (k.to_string(), v)))
        .collect()
}

/// Looks up one sample by exact key (`name` or `name{label="v"}`) in an
/// exposition text.
pub fn sample_value(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(split_sample)
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Merges several Prometheus exposition texts: samples with the same
/// `name{labels}` key are summed, `# HELP`/`# TYPE` come from the first
/// source defining each family, first-seen order is preserved.
pub fn merge(sources: &[&str]) -> String {
    let mut families: Vec<Family> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();

    let family_at =
        |families: &mut Vec<Family>, by_name: &mut HashMap<String, usize>, name: &str| -> usize {
            if let Some(&i) = by_name.get(name) {
                return i;
            }
            families.push(Family {
                name: name.to_string(),
                help: None,
                kind: None,
                index: HashMap::new(),
                samples: Vec::new(),
            });
            by_name.insert(name.to_string(), families.len() - 1);
            families.len() - 1
        };

    for source in sources {
        for line in source.lines().map(str::trim) {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if let Some((name, help)) = rest.split_once(' ') {
                    let i = family_at(&mut families, &mut by_name, name);
                    if families[i].help.is_none() {
                        families[i].help = Some(help.to_string());
                    }
                }
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.split_once(' ') {
                    let i = family_at(&mut families, &mut by_name, name);
                    if families[i].kind.is_none() {
                        families[i].kind = Some(kind.to_string());
                    }
                }
            } else if line.starts_with('#') {
                continue;
            } else if let Some((key, value)) = split_sample(line) {
                let i = family_at(&mut families, &mut by_name, family_of(key));
                let f = &mut families[i];
                match f.index.get(key) {
                    Some(&j) => f.samples[j].1 += value,
                    None => {
                        f.index.insert(key.to_string(), f.samples.len());
                        f.samples.push((key.to_string(), value));
                    }
                }
            }
        }
    }

    let mut out = String::new();
    for f in &families {
        if let Some(help) = &f.help {
            let _ = writeln!(out, "# HELP {} {}", f.name, help);
        }
        if let Some(kind) = &f.kind {
            let _ = writeln!(out, "# TYPE {} {}", f.name, kind);
        }
        for (key, value) in &f.samples {
            let _ = writeln!(out, "{} {}", key, render_value(*value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn sums_matching_samples_across_sources() {
        let a =
            "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\nx_total{node=\"1\"} 2\n";
        let b =
            "# HELP x_total Things.\n# TYPE x_total counter\nx_total 4\nx_total{node=\"2\"} 5\n";
        let merged = merge(&[a, b]);
        assert_eq!(sample_value(&merged, "x_total"), Some(7.0));
        assert_eq!(sample_value(&merged, "x_total{node=\"1\"}"), Some(2.0));
        assert_eq!(sample_value(&merged, "x_total{node=\"2\"}"), Some(5.0));
        // HELP/TYPE appear exactly once.
        assert_eq!(merged.matches("# HELP x_total").count(), 1);
        assert_eq!(merged.matches("# TYPE x_total").count(), 1);
    }

    #[test]
    fn disjoint_families_are_both_kept_in_first_seen_order() {
        let a = "# TYPE a_total counter\na_total 1\n";
        let b = "# TYPE b_total counter\nb_total 2\n";
        let merged = merge(&[a, b]);
        let a_at = merged.find("a_total 1").unwrap();
        let b_at = merged.find("b_total 2").unwrap();
        assert!(a_at < b_at);
    }

    #[test]
    fn histogram_suffixes_fold_into_their_base_family() {
        let a = "# TYPE lat histogram\nlat_bucket{le=\"1\"} 2\nlat_sum 1.5\nlat_count 2\n";
        let b = "lat_bucket{le=\"1\"} 3\nlat_sum 0.25\nlat_count 3\n";
        let merged = merge(&[a, b]);
        assert_eq!(sample_value(&merged, "lat_bucket{le=\"1\"}"), Some(5.0));
        assert_eq!(sample_value(&merged, "lat_sum"), Some(1.75));
        assert_eq!(sample_value(&merged, "lat_count"), Some(5.0));
        // The folded family renders one TYPE line, before every sample.
        assert_eq!(merged.matches("# TYPE lat histogram").count(), 1);
    }

    #[test]
    fn garbage_lines_degrade_instead_of_failing() {
        let merged = merge(&["not a sample\nx_total definitely-not-a-number\nx_total 1\n"]);
        assert_eq!(sample_value(&merged, "x_total"), Some(1.0));
        assert_eq!(parse_samples(&merged).len(), 1);
    }

    #[test]
    fn merging_real_registry_renders_matches_cell_sums() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter_with("demo_total", "Demo.", &[]).add(3);
        r2.counter_with("demo_total", "Demo.", &[]).add(4);
        r1.gauge_with("demo_gauge", "Demo gauge.", &[("node", "1")])
            .set(2);
        r2.gauge_with("demo_gauge", "Demo gauge.", &[("node", "2")])
            .set(5);
        let merged = merge(&[&r1.render_prometheus(), &r2.render_prometheus()]);
        assert_eq!(sample_value(&merged, "demo_total"), Some(7.0));
        assert_eq!(sample_value(&merged, "demo_gauge{node=\"1\"}"), Some(2.0));
        assert_eq!(sample_value(&merged, "demo_gauge{node=\"2\"}"), Some(5.0));
    }
}
