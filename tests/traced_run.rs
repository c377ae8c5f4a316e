//! A traced pooling run: tracing observes, and what it records draws.
//!
//! With spans and attribution on, `run_pooling` returns the metrics of
//! the untraced run, and the spans it recorded are well-formed: none ends
//! before it starts, and on every `(node, tid)` track the Chrome exporter
//! assigns, spans come in start order and never overlap — what Perfetto's
//! importer expects of complete events.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::trace;
use std::collections::BTreeMap;

#[test]
fn traced_run_matches_untraced_and_its_tracks_never_overlap() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let mut cfg = PoolingConfig::standard(kind, SysbenchKind::ReadWrite, 2);
        cfg.table_size = 4_000;
        cfg.duration = SimTime::from_millis(4);
        let untraced = run_pooling(&cfg);

        trace::reset();
        trace::enable_spans(true);
        trace::enable_attribution(true);
        let traced = run_pooling(&cfg);
        trace::enable_spans(false);
        trace::enable_attribution(false);
        let events = trace::take_events();
        trace::reset();

        assert_eq!(
            traced.metrics, untraced.metrics,
            "{kind:?}: tracing changed the run"
        );
        assert!(!events.is_empty(), "{kind:?}: no spans recorded");
        for e in &events {
            assert!(
                e.start <= e.end,
                "{kind:?}: span ends before it starts: {e:?}"
            );
        }

        // Last (start, end) drawn on each track so far.
        let mut last: BTreeMap<(u32, usize), (SimTime, SimTime)> = BTreeMap::new();
        let drawn = trace::chrome_tracks(&events);
        assert_eq!(drawn.len(), events.len());
        for (i, tid) in drawn {
            let e = &events[i];
            if let Some((start, end)) = last.insert((e.node, tid), (e.start, e.end)) {
                assert!(
                    start <= e.start && end <= e.start,
                    "{kind:?}: track ({}, {tid}) draws {e:?} over a span of {start}..{end}",
                    e.node
                );
            }
        }
        assert!(
            last.len() > 2,
            "{kind:?}: spans of one kind on one node only"
        );

        let doc = trace::chrome_trace_json(&events);
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), events.len());
        assert_eq!(doc.matches("\"ph\": \"M\"").count(), last.len());
        // Span and track names hold no delimiter, so counting balances.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
