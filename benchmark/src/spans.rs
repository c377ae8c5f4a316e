//! Benchmark-owned host-clock spans: `run → workload → rep → cell →
//! {setup, full}` and `layers → <loop name>`. Recorded from the benchmark's
//! own files around the calls into each layer, kept in memory, and written
//! once as Chrome `trace_event` JSON. The untraced `run` records none.

use crate::json::Json;
use simkit::json::{escape, Obj};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Shared by every span of this invocation (wall-clock ns at start).
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        let run_id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Spans {
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Chrome `trace_event` document (load in Perfetto / chrome://tracing).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = Obj::new()
                    .int("id", i as u64)
                    .raw(
                        "parent",
                        &s.parent.map_or("null".to_string(), |p| p.to_string()),
                    )
                    .int("run", self.run_id)
                    .num("self_us", self.self_ns(i) as f64 / 1e3);
                Obj::new()
                    .str("name", &s.name)
                    .str("cat", "benchmark")
                    .str("ph", "X")
                    .num("ts", s.start_ns as f64 / 1e3)
                    .num("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .int("pid", 1)
                    .int("tid", 1)
                    .raw("args", &args.build())
                    .build()
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"run\": \"{}\", \"traceEvents\": [\n{}\n]}}\n",
            escape(&self.run_id.to_string()),
            events.join(",\n")
        )
    }
}

/// Check an emitted trace: well-formed JSON, every event complete, every
/// child inside its parent, one run id. Returns the number of spans.
pub fn validate_chrome(doc: &str) -> Result<usize, String> {
    let root = Json::parse(doc)?;
    let events = root
        .get("traceEvents")
        .ok_or("no traceEvents array")?
        .as_arr();
    let field = |e: &Json, k: &str| {
        e.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event without numeric {k}"))
    };
    let mut bounds = Vec::with_capacity(events.len());
    let mut run = None;
    for e in events {
        let (ts, dur) = (field(e, "ts")?, field(e, "dur")?);
        let args = e.get("args").ok_or("event without args")?;
        let id = field(args, "id")? as usize;
        if id != bounds.len() {
            return Err(format!("span ids not dense at {id}"));
        }
        let r = field(args, "run")?;
        if *run.get_or_insert(r) != r {
            return Err("spans of one run carry different run ids".into());
        }
        let parent = args
            .get("parent")
            .and_then(Json::as_f64)
            .map(|p| p as usize);
        bounds.push((ts, ts + dur, parent));
    }
    for (i, &(start, end, parent)) in bounds.iter().enumerate() {
        if let Some(p) = parent {
            let &(ps, pe, _) = bounds
                .get(p)
                .ok_or(format!("span {i}: unknown parent {p}"))?;
            // Timestamps are µs with ns digits; allow the last digit.
            if start + 1e-3 < ps || end > pe + 1e-3 {
                return Err(format!(
                    "span {i} [{start}, {end}] leaves parent {p} [{ps}, {pe}]"
                ));
            }
        }
    }
    Ok(bounds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 200 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_spans_validate_and_self_time_excludes_children() {
        let mut s = Spans::new();
        s.open("run");
        spin();
        s.open("cell");
        spin();
        s.close();
        s.close();
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        let outer = s.spans()[0].end_ns - s.spans()[0].start_ns;
        let inner = s.spans()[1].end_ns - s.spans()[1].start_ns;
        assert_eq!(s.self_ns(0), outer - inner);
        assert_eq!(validate_chrome(&s.chrome_json()), Ok(2));
    }

    #[test]
    fn child_outside_parent_is_rejected() {
        let doc = r#"{"traceEvents": [
            {"ts": 0, "dur": 10, "args": {"id": 0, "parent": null, "run": 1}},
            {"ts": 5, "dur": 10, "args": {"id": 1, "parent": 0, "run": 1}}]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("leaves parent"));
        assert!(validate_chrome("{\"traceEvents\": [").is_err());
    }
}
