//! Trace analysis: per-node busy time, the critical path, and the
//! end-of-run metrics block.
//!
//! # The critical path
//!
//! The dataflow executor records one span per node task and, as meta
//! records, the graph structure (one record per node, one per statement
//! dependency). [`analyze`] merges each node's spans into busy intervals
//! and walks **backward** from the globally latest span end: each step
//! claims the window from the current node's first activity to the point
//! where the previous step took over, splits it into busy time (the
//! node's merged intervals inside the window) and wait time (queue gate /
//! starve / scheduling gaps), then hands off to the node's predecessor —
//! node `ni - 1` within the statement, or (from a statement's `Split`)
//! the dependency statement whose work ends latest. The windows tile the
//! whole trace extent, so the path total equals the run's wall clock by
//! construction and the busy/wait split says *where* that wall clock
//! went.
//!
//! # The synthesis split
//!
//! A cold plan runs before any dataflow node does. Under each
//! `synth/synthesize` span the synthesizer records a `synth/observe` and
//! a `synth/filter` span per gradient step and one `synth/trie-nodes`
//! counter per command; [`analyze`] sums them into [`SynthStat`], so the
//! report says how much of planning went to *running the command* and how
//! much to *deciding candidates* (the rest is input generation and
//! preprocessing probes).

use crate::record::{Kind, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate activity of one dataflow node.
#[derive(Debug, Clone)]
pub struct NodeStat {
    /// Statement index.
    pub si: u64,
    /// Node index within the statement.
    pub ni: u64,
    /// Node kind (from the graph meta record's name).
    pub kind: String,
    /// Human label (the node's command chain).
    pub label: String,
    /// Number of task spans recorded at this node.
    pub tasks: usize,
    /// Self time: the union of the node's span intervals, ns.
    pub busy_ns: u64,
    /// Earliest span start, ns (0 when the node never ran).
    pub first_ns: u64,
    /// Latest span end, ns.
    pub last_ns: u64,
}

/// One step of the critical path (printed last-to-first reversed, i.e.
/// in execution order).
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Statement index.
    pub si: u64,
    /// Node index.
    pub ni: u64,
    /// Node kind + label.
    pub label: String,
    /// The wall-clock window this step accounts for, ns.
    pub window_ns: u64,
    /// Busy time inside the window, ns.
    pub busy_ns: u64,
    /// Wait time inside the window (window − busy), ns.
    pub wait_ns: u64,
}

/// Combiner synthesis in the trace, summed over commands (which may have
/// been synthesized concurrently: these are busy times, not wall clock).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SynthStat {
    /// Commands synthesized (`synth/synthesize` spans).
    pub commands: usize,
    /// Total time inside `synth/synthesize`, ns.
    pub total_ns: u64,
    /// Of that, running the command on generated inputs (`synth/observe`).
    pub observe_ns: u64,
    /// Of that, deciding which candidates each observation leaves
    /// plausible (`synth/filter`).
    pub filter_ns: u64,
    /// Combiner-trie nodes the filter phase visited (`synth/trie-nodes`).
    pub trie_nodes: u64,
}

/// Everything [`analyze`] derives from a record set.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Total spans in the trace (all categories).
    pub span_count: usize,
    /// Trace extent: latest span end − earliest span start, ns.
    pub extent_ns: u64,
    /// Per-node stats, every graph node present (ran or not).
    pub nodes: Vec<NodeStat>,
    /// The critical path, in execution order.
    pub path: Vec<PathStep>,
    /// Sum of the path windows, ns. Tiles the extent when the trace has
    /// dataflow spans; 0 otherwise.
    pub path_total_ns: u64,
    /// Where cold planning's synthesis time went.
    pub synthesis: SynthStat,
}

fn merge_intervals(intervals: &mut Vec<(u64, u64)>) {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *intervals = merged;
}

fn busy_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals
        .iter()
        .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
        .sum()
}

/// Analyzes a record set (see the [module docs](self)).
pub fn analyze(records: &[Record]) -> Analysis {
    let spans: Vec<&Record> = records.iter().filter(|r| r.kind == Kind::Span).collect();
    let span_count = spans.len();
    let t_min = spans.iter().map(|r| r.t0).min().unwrap_or(0);
    let t_max = spans.iter().map(|r| r.t1).max().unwrap_or(0);
    let extent_ns = t_max.saturating_sub(t_min);

    let mut synthesis = SynthStat::default();
    for r in records.iter().filter(|r| r.cat == "synth") {
        match (r.kind, r.name.as_str()) {
            (Kind::Span, "synthesize") => {
                synthesis.commands += 1;
                synthesis.total_ns += r.t1 - r.t0;
            }
            (Kind::Span, "observe") => synthesis.observe_ns += r.t1 - r.t0,
            (Kind::Span, "filter") => synthesis.filter_ns += r.t1 - r.t0,
            (Kind::Counter, "trie-nodes") => synthesis.trie_nodes += r.v.unwrap_or(0.0) as u64,
            _ => {}
        }
    }

    // Graph structure from the meta records.
    let mut nodes: BTreeMap<(u64, u64), NodeStat> = BTreeMap::new();
    let mut deps: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in records {
        if r.kind != Kind::Meta || r.cat != "graph" {
            continue;
        }
        if r.name == "dep" {
            if let (Some(si), Some(dep)) = (r.si, r.seq) {
                deps.entry(si).or_default().push(dep);
            }
        } else if let (Some(si), Some(ni)) = (r.si, r.ni) {
            nodes.insert(
                (si, ni),
                NodeStat {
                    si,
                    ni,
                    kind: r.name.clone(),
                    label: r.label.clone(),
                    tasks: 0,
                    busy_ns: 0,
                    first_ns: 0,
                    last_ns: 0,
                },
            );
        }
    }

    // Node busy intervals from the dataflow task spans.
    let mut intervals: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for r in &spans {
        if r.cat != "dataflow" {
            continue;
        }
        if let (Some(si), Some(ni)) = (r.si, r.ni) {
            intervals.entry((si, ni)).or_default().push((r.t0, r.t1));
            if let Some(stat) = nodes.get_mut(&(si, ni)) {
                stat.tasks += 1;
            }
        }
    }
    for (key, ivs) in &mut intervals {
        merge_intervals(ivs);
        if let Some(stat) = nodes.get_mut(key) {
            stat.busy_ns = ivs.iter().map(|(s, e)| e - s).sum();
            stat.first_ns = ivs.first().map_or(0, |iv| iv.0);
            stat.last_ns = ivs.last().map_or(0, |iv| iv.1);
        }
    }

    // Backward critical-path walk.
    let mut path: Vec<PathStep> = Vec::new();
    let mut cursor = nodes
        .values()
        .filter(|n| n.tasks > 0)
        .max_by_key(|n| n.last_ns)
        .map(|n| (n.si, n.ni));
    let mut end = t_max;
    let mut steps_left = nodes.len() + 1;
    while let Some(key) = cursor {
        if steps_left == 0 {
            break;
        }
        steps_left -= 1;
        let stat = &nodes[&key];
        // The predecessor: the previous node in-statement, or (from the
        // statement's first node) the dependency statement that finished
        // latest. Only predecessors that ran can hand work over.
        let pred = if key.1 > 0 {
            nodes
                .get(&(key.0, key.1 - 1))
                .filter(|n| n.tasks > 0)
                .map(|n| (n.si, n.ni))
        } else {
            deps.get(&key.0)
                .into_iter()
                .flatten()
                .filter_map(|dep| {
                    nodes
                        .values()
                        .filter(|n| n.si == *dep && n.tasks > 0)
                        .max_by_key(|n| n.last_ns)
                })
                .max_by_key(|n| n.last_ns)
                .map(|n| (n.si, n.ni))
        };
        // This step claims [its first activity, the previous claim).
        // With no predecessor it also absorbs the leading gap back to
        // the trace start, so the windows tile the whole extent.
        let mut lo = stat.first_ns.min(end);
        if pred.is_none() {
            lo = t_min;
        }
        let ivs = intervals.get(&key).map_or(&[][..], Vec::as_slice);
        let busy = busy_within(ivs, lo, end);
        let window = end - lo;
        path.push(PathStep {
            si: key.0,
            ni: key.1,
            label: format!("{} {}", stat.kind, stat.label)
                .trim_end()
                .to_owned(),
            window_ns: window,
            busy_ns: busy,
            wait_ns: window - busy,
        });
        end = lo;
        cursor = pred;
        if end == t_min && pred.is_none() {
            break;
        }
    }
    path.reverse();
    let path_total_ns = path.iter().map(|s| s.window_ns).sum();

    Analysis {
        span_count,
        extent_ns,
        nodes: nodes.into_values().collect(),
        path,
        path_total_ns,
        synthesis,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the human report: extent, critical path, top-`top` busy nodes.
pub fn render_report(a: &Analysis, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} span(s), extent {:.1} ms",
        a.span_count,
        ms(a.extent_ns)
    );
    let synth = &a.synthesis;
    if synth.commands > 0 {
        let other = synth
            .total_ns
            .saturating_sub(synth.observe_ns + synth.filter_ns);
        let _ = writeln!(
            out,
            "synthesis: {} command(s), {:.1} ms = {:.1} ms running the command \
             + {:.1} ms deciding candidates ({} trie node(s)) + {:.1} ms other",
            synth.commands,
            ms(synth.total_ns),
            ms(synth.observe_ns),
            ms(synth.filter_ns),
            synth.trie_nodes,
            ms(other)
        );
    }
    if a.path.is_empty() {
        out.push_str("critical path: no dataflow node spans in this trace\n");
    } else {
        let pct = if a.extent_ns > 0 {
            100.0 * a.path_total_ns as f64 / a.extent_ns as f64
        } else {
            100.0
        };
        let _ = writeln!(
            out,
            "critical path: total {:.1} ms ({pct:.1}% of trace extent, {} step(s))",
            ms(a.path_total_ns),
            a.path.len()
        );
        for step in &a.path {
            let _ = writeln!(
                out,
                "  s{} n{} {:<40} window {:>9.1} ms  busy {:>9.1} ms  wait {:>9.1} ms",
                step.si + 1,
                step.ni,
                step.label,
                ms(step.window_ns),
                ms(step.busy_ns),
                ms(step.wait_ns)
            );
        }
    }
    let mut busiest: Vec<&NodeStat> = a.nodes.iter().filter(|n| n.tasks > 0).collect();
    busiest.sort_by_key(|n| std::cmp::Reverse(n.busy_ns));
    if !busiest.is_empty() {
        let _ = writeln!(out, "top busy nodes:");
        for n in busiest.iter().take(top) {
            let pct = if a.extent_ns > 0 {
                100.0 * n.busy_ns as f64 / a.extent_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  s{} n{} {:<40} busy {:>9.1} ms ({pct:>5.1}%)  {} task(s)",
                n.si + 1,
                n.ni,
                format!("{} {}", n.kind, n.label).trim_end(),
                ms(n.busy_ns),
                n.tasks
            );
        }
    }
    out
}

/// Renders the `--metrics` block: span totals per category/name, then
/// counter sums — one line per key, stable order.
pub fn render_metrics(records: &[Record]) -> Vec<String> {
    let mut span_agg: BTreeMap<(String, String), (usize, u64)> = BTreeMap::new();
    let mut counter_agg: BTreeMap<(String, String), (usize, f64)> = BTreeMap::new();
    for r in records {
        match r.kind {
            Kind::Span => {
                let e = span_agg.entry((r.cat.clone(), r.name.clone())).or_default();
                e.0 += 1;
                e.1 += r.t1 - r.t0;
            }
            Kind::Counter => {
                let e = counter_agg
                    .entry((r.cat.clone(), r.name.clone()))
                    .or_default();
                e.0 += 1;
                e.1 += r.v.unwrap_or(0.0);
            }
            _ => {}
        }
    }
    let mut lines = Vec::new();
    for ((cat, name), (count, total_ns)) in &span_agg {
        lines.push(format!(
            "metrics: span {cat}/{name}: {count} span(s), {:.1} ms total",
            ms(*total_ns)
        ));
    }
    for ((cat, name), (count, total)) in &counter_agg {
        let rendered = if *total == total.trunc() {
            format!("{}", *total as i64)
        } else {
            format!("{total:.3}")
        };
        lines.push(format!(
            "metrics: counter {cat}/{name}: {rendered} over {count} sample(s)"
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(si: u64, ni: u64, t0: u64, t1: u64) -> Record {
        Record {
            kind: Kind::Span,
            cat: "dataflow".into(),
            name: "map".into(),
            label: String::new(),
            si: Some(si),
            ni: Some(ni),
            seq: Some(0),
            t0,
            t1,
            tid: 0,
            v: None,
        }
    }

    fn node(si: u64, ni: u64, kind: &str) -> Record {
        Record {
            kind: Kind::Meta,
            cat: "graph".into(),
            name: kind.into(),
            label: format!("cmd-{si}-{ni}"),
            si: Some(si),
            ni: Some(ni),
            seq: None,
            t0: 0,
            t1: 0,
            tid: 0,
            v: None,
        }
    }

    fn dep(si: u64, on: u64) -> Record {
        Record {
            kind: Kind::Meta,
            cat: "graph".into(),
            name: "dep".into(),
            label: String::new(),
            si: Some(si),
            ni: None,
            seq: Some(on),
            t0: 0,
            t1: 0,
            tid: 0,
            v: None,
        }
    }

    #[test]
    fn path_tiles_the_extent_within_one_statement() {
        // Split [0,100), worker [50,400), fold [350,1000).
        let records = vec![
            node(0, 0, "split"),
            node(0, 1, "worker"),
            node(0, 2, "fold"),
            span(0, 0, 0, 100),
            span(0, 1, 50, 400),
            span(0, 2, 350, 1000),
        ];
        let a = analyze(&records);
        assert_eq!(a.extent_ns, 1000);
        assert_eq!(a.path_total_ns, a.extent_ns, "windows tile the extent");
        let order: Vec<(u64, u64)> = a.path.iter().map(|s| (s.si, s.ni)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2)]);
        // The fold's step: window [350,1000) all busy.
        assert_eq!(a.path.last().unwrap().busy_ns, 650);
        assert_eq!(a.path.last().unwrap().wait_ns, 0);
    }

    #[test]
    fn path_crosses_statement_dependencies() {
        let records = vec![
            node(0, 0, "split"),
            node(0, 1, "fold"),
            node(1, 0, "split"),
            node(1, 1, "worker"),
            dep(1, 0),
            span(0, 0, 0, 100),
            span(0, 1, 100, 500),
            span(1, 0, 500, 600),
            span(1, 1, 600, 900),
        ];
        let a = analyze(&records);
        assert_eq!(a.path_total_ns, a.extent_ns);
        let order: Vec<(u64, u64)> = a.path.iter().map(|s| (s.si, s.ni)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn wait_time_is_window_minus_busy() {
        // The worker idles [100,300) waiting on its queue.
        let records = vec![
            node(0, 0, "split"),
            node(0, 1, "worker"),
            span(0, 0, 0, 100),
            span(0, 1, 50, 100),
            span(0, 1, 300, 500),
        ];
        let a = analyze(&records);
        let worker = a.path.last().unwrap();
        assert_eq!(worker.window_ns, 450);
        assert_eq!(worker.busy_ns, 250);
        assert_eq!(worker.wait_ns, 200);
    }

    #[test]
    fn no_dataflow_spans_yields_empty_path() {
        let mut r = span(0, 0, 0, 10);
        r.cat = "plan".into();
        r.si = None;
        r.ni = None;
        let a = analyze(&[r]);
        assert!(a.path.is_empty());
        assert_eq!(a.path_total_ns, 0);
        let rendered = render_report(&a, 5);
        assert!(rendered.contains("critical path"), "{rendered}");
    }

    #[test]
    fn synthesis_split_sums_the_phases_over_commands() {
        let synth = |kind: Kind, name: &str, t0: u64, t1: u64, v: Option<f64>| {
            let mut r = span(0, 0, t0, t1);
            (r.kind, r.cat, r.name, r.v) = (kind, "synth".into(), name.into(), v);
            (r.si, r.ni) = (None, None);
            r
        };
        let records = vec![
            synth(Kind::Span, "synthesize", 0, 1000, None),
            synth(Kind::Span, "observe", 100, 400, None),
            synth(Kind::Span, "filter", 400, 450, None),
            synth(Kind::Span, "observe", 500, 700, None),
            synth(Kind::Span, "filter", 700, 720, None),
            synth(Kind::Counter, "trie-nodes", 1000, 1000, Some(96.0)),
            synth(Kind::Span, "synthesize", 2000, 2500, None),
            synth(Kind::Counter, "trie-nodes", 2500, 2500, Some(4.0)),
            synth(Kind::Counter, "rounds", 2500, 2500, Some(2.0)),
        ];
        let a = analyze(&records);
        assert_eq!(
            a.synthesis,
            SynthStat {
                commands: 2,
                total_ns: 1500,
                observe_ns: 500,
                filter_ns: 70,
                trie_nodes: 100,
            }
        );
        let rendered = render_report(&a, 5);
        assert!(
            rendered.contains("synthesis: 2 command(s)") && rendered.contains("(100 trie node(s))"),
            "{rendered}"
        );
        // A trace without synthesis says nothing about it.
        let quiet = render_report(&analyze(&[span(0, 0, 0, 10)]), 5);
        assert!(!quiet.contains("synthesis:"), "{quiet}");
    }

    #[test]
    fn node_stats_merge_overlapping_spans() {
        let records = vec![
            node(0, 1, "worker"),
            span(0, 1, 0, 100),
            span(0, 1, 50, 150),
            span(0, 1, 200, 250),
        ];
        let a = analyze(&records);
        let stat = a.nodes.iter().find(|n| n.ni == 1).unwrap();
        assert_eq!(stat.busy_ns, 200, "overlap counted once");
        assert_eq!(stat.tasks, 3);
        let rendered = render_report(&a, 3);
        assert!(rendered.contains("top busy nodes"), "{rendered}");
        assert!(rendered.contains("worker cmd-0-1"), "{rendered}");
    }

    #[test]
    fn metrics_aggregate_spans_and_counters() {
        let mut c = span(0, 1, 0, 10);
        c.kind = Kind::Counter;
        c.name = "bytes_in".into();
        c.v = Some(1024.0);
        let records = vec![span(0, 1, 0, 1_000_000), span(0, 1, 0, 500_000), c];
        let lines = render_metrics(&records);
        let text = lines.join("\n");
        assert!(
            text.contains("span dataflow/map: 2 span(s), 1.5 ms"),
            "{text}"
        );
        assert!(
            text.contains("counter dataflow/bytes_in: 1024 over 1 sample(s)"),
            "{text}"
        );
    }
}
