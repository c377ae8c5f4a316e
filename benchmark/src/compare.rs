//! `compare <a.json> <b.json>`: applies each end-to-end metric's fixed
//! bound to every workload row of two `results.json` files.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Within the bound, but the two sides' min–max ranges overlap and are
    /// wider than the bound: the runs cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a metric row.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a;
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict rule. A median worse by more than the bound is a
/// regression whatever the spread; an improvement is only claimed when
/// the spread allows it.
pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let delta = worse_by(a.value, b.value, higher_is_better);
    if delta > bound {
        return Verdict::Regressed;
    }
    let overlap = a.min <= b.max && b.min <= a.max;
    let width = |s: Side| (s.max - s.min) / s.value;
    if overlap && width(a).max(width(b)) > bound {
        return Verdict::Unresolved;
    }
    if delta < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(row: &Json) -> Option<Side> {
    Some(Side {
        value: row.get("value")?.as_f64()?,
        min: row.get("min")?.as_f64()?,
        max: row.get("max")?.as_f64()?,
    })
}

fn fail_ratio(w: &Json) -> f64 {
    let n = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("checks_failed") / n("checks_total").max(1.0)
}

/// Compare two parsed `results.json` documents; prints one line per
/// (workload, metric) and returns whether `b` passes. With `aa` the two
/// are runs of the same build: sim metrics must be exactly equal and
/// host metrics within their bound.
pub fn compare(a: &Json, b: &Json, aa: bool) -> Result<bool, String> {
    let workloads_a = a.get("workloads").ok_or("a: no workloads")?;
    let workloads_b = b.get("workloads").ok_or("b: no workloads")?;
    if a.get("seed") != b.get("seed") {
        println!("note: the two files were run at different seeds; sim metrics will differ");
    }
    let mut pass = true;
    for (name, wa) in workloads_a.fields() {
        let Some(wb) = workloads_b.get(name) else {
            println!("{name}: missing from b");
            pass = false;
            continue;
        };
        let rows_a = wa.get("metrics").ok_or("a: workload without metrics")?;
        for (metric, ra) in rows_a.fields() {
            let rb = wb
                .get("metrics")
                .and_then(|m| m.get(metric))
                .ok_or_else(|| format!("b: {name} has no {metric}"))?;
            let (sa, sb) = (
                side(ra).ok_or("a: malformed metric row")?,
                side(rb).ok_or("b: malformed metric row")?,
            );
            let higher = ra.get("better").and_then(Json::as_str) == Some("higher");
            let sim = ra.get("clock").and_then(Json::as_str) == Some("sim");
            let bound = ra
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("a: row without bound")?;
            let unit = ra.get("unit").and_then(Json::as_str).unwrap_or("");
            let v = verdict(sa, sb, higher, bound);
            let ok = if aa && sim {
                sa.value.to_bits() == sb.value.to_bits()
            } else if aa {
                worse_by(sa.value, sb.value, higher).abs() <= bound
            } else {
                v != Verdict::Regressed
            };
            pass &= ok;
            println!(
                "{name:<14} {metric:<20} {:<10} b/a = {:.4} (base a = {} {unit}, b = {}; may move {}{:.0} %){}",
                v.name(),
                sb.value / sa.value,
                sa.value,
                sb.value,
                if higher { '-' } else { '+' },
                bound * 100.0,
                if ok { "" } else { "  <-- FAIL" }
            );
        }
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        let checks_ok = fb <= fa && (!aa || fb == 0.0);
        pass &= checks_ok;
        println!(
            "{name:<14} {:<20} {:<10} a = {fa}, b = {fb}{}",
            "check_fail_ratio",
            if checks_ok { "ok" } else { "worse" },
            if checks_ok { "" } else { "  <-- FAIL" }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max }
    }

    #[test]
    fn verdict_rule_on_synthetic_rows() {
        // Lower is better, 10 % bound, tight ranges.
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, s(100.5, 100.0, 101.0), false, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(a, s(115.0, 114.0, 116.0), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, s(85.0, 84.0, 86.0), false, 0.1),
            Verdict::Improved
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(a, s(85.0, 84.0, 86.0), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, s(115.0, 114.0, 116.0), true, 0.1),
            Verdict::Improved
        );
        // Overlapping ranges wider than the bound: cannot tell.
        let noisy = s(100.0, 90.0, 112.0);
        assert_eq!(
            verdict(noisy, s(104.0, 95.0, 110.0), false, 0.1),
            Verdict::Unresolved
        );
        // ...but a median past the bound is still a regression,
        assert_eq!(
            verdict(noisy, s(111.0, 95.0, 120.0), false, 0.1),
            Verdict::Regressed
        );
        // and an apparent gain inside overlapping noise is not claimed.
        assert_eq!(
            verdict(noisy, s(88.0, 80.0, 95.0), false, 0.1),
            Verdict::Unresolved
        );
        // Exact sim rows (min = max = value) are never unresolved.
        assert_eq!(
            verdict(s(5.0, 5.0, 5.0), s(5.0, 5.0, 5.0), true, 0.02),
            Verdict::Unchanged
        );
    }

    fn doc(ops: f64, qps: f64, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"seed": 42, "workloads": {{"w": {{"checks_total": 10, "checks_failed": {failed},
            "metrics": {{
              "sim_ops_per_host_s": {{"value": {ops}, "min": {ops}, "max": {ops}, "n": 3, "unit": "1/s", "clock": "host", "better": "higher", "bound": 0.1}},
              "sim_qps": {{"value": {qps}, "min": {qps}, "max": {qps}, "n": 1, "unit": "sim_1/s", "clock": "sim", "better": "higher", "bound": 0.02}}
            }}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_gates_on_regressions_and_checks() {
        let base = doc(1000.0, 500.0, 0);
        assert_eq!(compare(&base, &doc(950.0, 500.0, 0), false), Ok(true));
        assert_eq!(compare(&base, &doc(850.0, 500.0, 0), false), Ok(false));
        assert_eq!(compare(&base, &doc(1000.0, 500.0, 1), false), Ok(false));
        // A/A: host within bound passes, any sim difference fails.
        assert_eq!(compare(&base, &doc(950.0, 500.0, 0), true), Ok(true));
        assert_eq!(compare(&base, &doc(1000.0, 500.000001, 0), true), Ok(false));
        assert_eq!(compare(&base, &doc(1000.0, 500.000001, 0), false), Ok(true));
    }
}
