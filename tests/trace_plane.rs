//! Integration tests for the tracing & metrics plane: the `--trace-out`
//! JSONL/Chrome exports, the span-identity determinism contract, graph
//! coverage, and the `trace report` critical path.
//!
//! The tests run concurrently in one process under default test
//! threading: a trace session records only the threads it was handed to,
//! so neighbouring runs — traced or not — cannot leak into each other.
//! The last two tests pin that with barriers instead of relying on luck.

use kq_cli::run_cli;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn call(words: &[&str]) -> kq_cli::CliOutput {
    let v: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
    run_cli(&v).expect("cli invocation failed")
}

/// A fresh scratch dir with a word-frequency input and a two-statement
/// script (the second statement reads the first's redirect target, so the
/// dataflow graph has a cross-statement dependency).
struct Scratch {
    dir: PathBuf,
    script: String,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("kq-trace-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        let words = ["apple", "dog", "cat", "bird", "fox", "kiwi"];
        let mut text = String::new();
        for i in 0..4000 {
            text.push_str(words[i % words.len()]);
            text.push(' ');
            text.push_str(words[(i * 7 + 3) % words.len()]);
            text.push('\n');
        }
        std::fs::write(&input, text).unwrap();
        let script = format!(
            "cat {inp} | cut -d ' ' -f 1 | sort > {mid}\ncat {mid} | uniq -c | sort -rn",
            inp = input.display(),
            mid = dir.join("mid.txt").display()
        );
        Scratch { dir, script }
    }

    fn trace_path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A record's identity: everything but timestamps, thread id and value.
fn identity(r: &kq_trace::Record) -> String {
    format!(
        "{}/{}/{}/{:?}/{:?}/{:?}/{}",
        r.kind.as_str(),
        r.cat,
        r.name,
        r.si,
        r.ni,
        r.seq,
        r.label
    )
}

fn run_traced(s: &Scratch, trace: &str, workers: &str) -> Vec<kq_trace::Record> {
    run_traced_script(&s.script, trace, workers)
}

fn run_traced_script(script: &str, trace: &str, workers: &str) -> Vec<kq_trace::Record> {
    let out = call(&[
        "run",
        script,
        "--workers",
        workers,
        "--chunk-kb",
        "4",
        "--trace-out",
        trace,
    ]);
    assert!(
        out.notes.iter().any(|n| n.starts_with("trace:")),
        "missing trace note: {:?}",
        out.notes
    );
    let text = std::fs::read_to_string(trace).unwrap();
    kq_trace::parse_jsonl(&text).expect("trace JSONL must parse")
}

#[test]
fn jsonl_schema_round_trips_every_record() {
    let s = Scratch::new("schema");
    let trace = s.trace_path("t.json");
    let records = run_traced(&s, &trace, "2");
    assert!(records.len() > 20, "suspiciously small trace");
    // Field-for-field: re-serializing each parsed record and parsing it
    // again must be the identity.
    for r in &records {
        let again = kq_trace::Record::from_json(&r.to_json()).unwrap();
        assert_eq!(*r, again, "round-trip changed a record");
    }
    // Required fields: every record names its kind, category, and name;
    // spans have an interval.
    for r in &records {
        assert!(!r.cat.is_empty() && !r.name.is_empty());
        if r.kind == kq_trace::Kind::Span {
            assert!(r.t1 >= r.t0, "span ends before it starts");
        }
    }
}

/// The determinism contract: span identities (everything except
/// timestamps, thread ids, and measured values) form the same multiset
/// across repeated runs and across worker counts. The script has no
/// prefix-bounded stage, so no early-exit cancellation perturbs the
/// chunk count.
#[test]
fn span_identities_are_stable_across_runs_and_workers() {
    let s = Scratch::new("determinism");

    let identity_multiset = |records: &[kq_trace::Record]| {
        let mut m: BTreeMap<String, usize> = BTreeMap::new();
        for r in records {
            // Skip ingest/release + synth records: cache state and page
            // release cadence are process-history dependent, not part of
            // the per-run contract.
            if r.cat == "synth" || r.cat == "cache" || r.cat == "ingest" || r.cat == "chunk" {
                continue;
            }
            *m.entry(identity(r)).or_default() += 1;
        }
        m
    };

    let a = identity_multiset(&run_traced(&s, &s.trace_path("a.json"), "2"));
    let b = identity_multiset(&run_traced(&s, &s.trace_path("b.json"), "2"));
    assert_eq!(a, b, "same config, different span identities");

    let c = identity_multiset(&run_traced(&s, &s.trace_path("c.json"), "4"));
    assert_eq!(a, c, "worker count changed span identities");
}

/// Every node of every statement's dataflow graph appears in the trace:
/// as a graph meta, and with at least one task-level span attributed to
/// it.
#[test]
fn dataflow_run_emits_spans_for_every_graph_node() {
    let s = Scratch::new("coverage");
    let trace = s.trace_path("t.json");
    let records = run_traced(&s, &trace, "2");

    let mut graph_nodes = Vec::new();
    for r in &records {
        if r.kind == kq_trace::Kind::Meta && r.cat == "graph" && r.name != "dep" {
            graph_nodes.push((r.si.unwrap(), r.ni.unwrap()));
        }
    }
    assert!(
        graph_nodes.len() >= 6,
        "two 3-node statements expected, got {graph_nodes:?}"
    );
    for (si, ni) in graph_nodes {
        let has_span = records.iter().any(|r| {
            r.kind == kq_trace::Kind::Span
                && r.cat == "dataflow"
                && r.si == Some(si)
                && r.ni == Some(ni)
        });
        assert!(has_span, "graph node s{si} n{ni} has no task span");
    }
}

/// `trace report` finds a critical path whose windows tile the trace:
/// the path total equals the trace extent (well within the 10% criterion
/// against the run's wall clock, which the extent measures).
#[test]
fn critical_path_total_matches_trace_extent() {
    let s = Scratch::new("critpath");
    let trace = s.trace_path("t.json");
    let records = run_traced(&s, &trace, "2");

    let analysis = kq_trace::report::analyze(&records);
    assert!(!analysis.path.is_empty(), "no critical path found");
    assert!(analysis.extent_ns > 0);
    let ratio = analysis.path_total_ns as f64 / analysis.extent_ns as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "critical path total {} vs extent {} (ratio {ratio})",
        analysis.path_total_ns,
        analysis.extent_ns
    );

    // The subcommand renders the same analysis.
    let out = call(&["trace", "report", &trace, "--top", "3"]);
    assert!(out.text().contains("critical path:"), "{}", out.text());
    assert!(out.text().contains("top busy nodes:"), "{}", out.text());
}

/// A cold plan splits into running the command and deciding candidates:
/// every `synth/synthesize` span holds its gradient steps' `observe` and
/// `filter` spans, each command reports the trie nodes its walks visited,
/// and `trace report` prints the split.
#[test]
fn cold_plan_splits_into_observe_and_filter() {
    let s = Scratch::new("synth-split");
    let trace = s.trace_path("t.json");
    let records = run_traced(&s, &trace, "2");
    let synth = |kind: kq_trace::Kind, name: &str| -> Vec<&kq_trace::Record> {
        let of = |r: &&kq_trace::Record| r.kind == kind && r.cat == "synth" && r.name == name;
        records.iter().filter(of).collect()
    };
    let commands = synth(kq_trace::Kind::Span, "synthesize");
    // `sort`, `uniq -c` and `sort -rn` need synthesis (`cut` is stateless).
    assert!(commands.len() >= 3, "{} synthesize span(s)", commands.len());
    let observes = synth(kq_trace::Kind::Span, "observe");
    let filters = synth(kq_trace::Kind::Span, "filter");
    assert!(observes.len() >= commands.len());
    assert_eq!(
        observes.len(),
        filters.len(),
        "one of each per gradient step"
    );
    for phase in observes.iter().chain(&filters) {
        let parent = commands
            .iter()
            .find(|c| c.tid == phase.tid && c.t0 <= phase.t0 && phase.t1 <= c.t1);
        assert!(parent.is_some(), "{phase:?} lies in no synthesize span");
    }
    let nodes = synth(kq_trace::Kind::Counter, "trie-nodes");
    assert_eq!(nodes.len(), commands.len());
    assert!(nodes.iter().all(|r| r.v.unwrap_or(0.0) > 0.0));

    let analysis = kq_trace::report::analyze(&records);
    assert_eq!(analysis.synthesis.commands, commands.len());
    assert!(
        analysis.synthesis.observe_ns + analysis.synthesis.filter_ns <= analysis.synthesis.total_ns
    );
    let out = call(&["trace", "report", &trace]);
    assert!(out.text().contains("deciding candidates"), "{}", out.text());
}

/// A run whose first fold finishes in parts: two and a half ranges' bytes
/// (`SORT_RUN_BYTES`) sorted under 64 KiB chunks, all of them raw, close
/// with a two-part sample sort. The trace
/// has one `fold-partition` span for the planning, one `fold-scatter` span
/// per scatter item and one `fold-finish` span per part, `seq` the item
/// and the part index, every scatter span over before the first part
/// starts; since the part count follows the bytes folded and never the
/// worker count, the span identities are the same multiset at two workers
/// and at four; and the node's finish being several spans on several
/// threads leaves the critical path tiling the trace.
#[test]
fn a_finish_in_parts_traces_one_span_per_part_whatever_the_workers() {
    let s = Scratch::new("parts");
    let input = s.dir.join("big.txt");
    let bytes = kumquat::dsl::kway::SORT_RUN_BYTES * 5 / 2;
    let mut text = String::with_capacity(bytes);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while text.len() < bytes {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        text.push_str(&format!(
            "{:07} w{}\n",
            (state >> 33) % 3_000_000,
            state % 5
        ));
    }
    std::fs::write(&input, text).unwrap();
    let script = format!(
        "cat {} | sort | cut -d ' ' -f 2 | uniq -c | wc -l",
        input.display()
    );
    let traced = |name: &str, workers: &str| {
        let trace = s.trace_path(name);
        call(&[
            "run",
            &script,
            "--workers",
            workers,
            "--trace-out",
            &trace,
            "--no-verify",
        ]);
        let text = std::fs::read_to_string(&trace).unwrap();
        kq_trace::parse_jsonl(&text).expect("trace JSONL must parse")
    };
    let two = traced("two.json", "2");
    let four = traced("four.json", "4");

    let of_sort = |records: &[kq_trace::Record], name: &str| -> Vec<Option<u64>> {
        let mut seqs: Vec<Option<u64>> = records
            .iter()
            .filter(|r| r.kind == kq_trace::Kind::Span && r.name == name && r.ni == Some(1))
            .map(|r| r.seq)
            .collect();
        seqs.sort();
        seqs
    };
    assert_eq!(of_sort(&two, "fold-partition"), [None]);
    assert_eq!(of_sort(&two, "fold-scatter"), [Some(0), Some(1)]);
    assert_eq!(of_sort(&two, "fold-finish"), [Some(0), Some(1)]);
    assert_eq!(of_sort(&two, "fold-merge"), [], "no batch is sorted");
    for records in [&two, &four] {
        let times = |name: &str| -> Vec<(u64, u64)> {
            (records.iter())
                .filter(|r| r.kind == kq_trace::Kind::Span && r.name == name && r.ni == Some(1))
                .map(|r| (r.t0, r.t1))
                .collect()
        };
        let scattered = times("fold-scatter").iter().map(|t| t.1).max().unwrap();
        let first_part = times("fold-finish").iter().map(|t| t.0).min().unwrap();
        assert!(
            scattered <= first_part,
            "a range is sorted only once scattered"
        );
    }
    // The folds downstream see KBs and finish in one unnumbered span.
    let unnumbered = |r: &&kq_trace::Record| r.name == "fold-finish" && r.seq.is_none();
    assert_eq!(two.iter().filter(unnumbered).count(), 2);

    assert_eq!(dataflow_identities(&two), dataflow_identities(&four));

    for records in [&two, &four] {
        let analysis = kq_trace::report::analyze(records);
        assert!(analysis.extent_ns > 0);
        assert_eq!(analysis.path_total_ns, analysis.extent_ns);
    }
}

/// The split lets go of a mapped input one in-flight window behind its
/// cursor: on an input several windows long, `ingest/release` instants
/// fire while the split still has chunks to cut, not only once it has
/// cut them all.
#[test]
fn a_mapped_input_is_released_before_the_split_cuts_its_last_chunk() {
    let s = Scratch::new("release");
    let input = s.dir.join("mapped.txt");
    let line = "a line of filler text that the split cuts into chunks\n";
    std::fs::write(&input, line.repeat((12 << 20) / line.len())).unwrap();
    let trace = s.trace_path("t.json");
    let script = format!("cat {} | wc -l", input.display());
    let out = call(&[
        "run",
        &script,
        "--mmap",
        "on",
        "--no-verify",
        "--workers",
        "2",
        "--trace-out",
        &trace,
    ]);
    assert!(
        out.notes.iter().any(|n| n.starts_with("mapped ")),
        "{:?}",
        out.notes
    );
    let records = kq_trace::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let last_cut = records
        .iter()
        .filter(|r| r.kind == kq_trace::Kind::Span && r.cat == "dataflow" && r.name == "split")
        .max_by_key(|r| r.seq)
        .expect("the split cuts chunks");
    let early = records
        .iter()
        .filter(|r| r.cat == "ingest" && r.name == "release" && r.t0 < last_cut.t0)
        .count();
    assert!(
        early >= 2,
        "{early} release(s) before the last of {} chunks was cut",
        last_cut.seq.unwrap_or(0) + 1
    );
}

/// A run with a counting fold: `sort | uniq -c | sort -rn` is one graph
/// node — kind `fold`, labelled with the three commands, under the span
/// names every fold has — there is no `uniq -c` node and no `sort -rn`
/// node, `--no-opt` brings both back, and the span identities are the same
/// multiset at two workers and at four.
#[test]
fn a_counting_fold_is_one_fold_node_with_stable_span_identities() {
    let s = Scratch::new("counting");
    let script = format!(
        "cat {} | cut -d ' ' -f 1 | sort | uniq -c | sort -rn",
        s.dir.join("in.txt").display()
    );
    let two = run_traced_script(&script, &s.trace_path("two.json"), "2");
    let four = run_traced_script(&script, &s.trace_path("four.json"), "4");
    assert_eq!(dataflow_identities(&two), dataflow_identities(&four));

    let nodes = |records: &[kq_trace::Record]| -> Vec<(String, String)> {
        records
            .iter()
            .filter(|r| r.kind == kq_trace::Kind::Meta && r.cat == "graph" && r.name != "dep")
            .map(|r| (r.name.clone(), r.label.clone()))
            .collect()
    };
    let pair = ("fold".to_owned(), "sort | uniq -c | sort -rn".to_owned());
    assert!(nodes(&two).contains(&pair), "{:?}", nodes(&two));
    assert!(nodes(&two)
        .iter()
        .all(|(_, label)| label != "uniq -c" && label != "sort -rn"));
    let ni = two
        .iter()
        .find(|r| r.cat == "graph" && r.label == pair.1)
        .and_then(|r| r.ni);
    let names: std::collections::BTreeSet<&str> = two
        .iter()
        .filter(|r| r.kind == kq_trace::Kind::Span && r.cat == "dataflow" && r.ni == ni)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        ["emit", "fold-finish", "fold-merge", "fold-push", "map"],
        "a fold of KBs: its pieces sealed into one run batch, one closing merge"
    );

    let unfused = s.trace_path("unfused.json");
    call(&[
        "run",
        &script,
        "--no-opt",
        "--workers",
        "2",
        "--trace-out",
        &unfused,
    ]);
    let unfused = kq_trace::parse_jsonl(&std::fs::read_to_string(&unfused).unwrap()).unwrap();
    assert!(!nodes(&unfused).contains(&pair));
    assert!(nodes(&unfused).contains(&("fold".to_owned(), "uniq -c".to_owned())));
    assert!(nodes(&unfused).contains(&("fold".to_owned(), "sort -rn".to_owned())));
}

/// `corpus --plan` records through the same session `run` does:
/// `--trace-out` writes both files with the synthesis spans in them, and
/// `--metrics` prints the aggregated block.
#[test]
fn corpus_plan_takes_trace_out_and_metrics() {
    let s = Scratch::new("corpus-plan");
    let trace = s.trace_path("plan.json");
    let out = call(&[
        "corpus",
        "--plan",
        "--suite",
        "oneliners",
        "--synth-workers",
        "2",
        "--trace-out",
        &trace,
        "--metrics",
    ]);
    let text = out.text();
    assert!(text.contains("stages parallel"), "{text}");
    assert!(out.notes.iter().any(|n| n.starts_with("trace:")));
    assert!(out
        .notes
        .iter()
        .any(|n| n.starts_with("metrics: span synth/synthesize:")));
    // Every synthesis the listing reports left its span, whichever worker
    // ran it: a worker that recorded nowhere shows up as missing spans.
    let reported: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("synthesis: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("a synthesis line");
    assert!(reported > 10, "{text}");
    let records = kq_trace::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let synthesized = |r: &&kq_trace::Record| r.cat == "synth" && r.name == "synthesize";
    assert_eq!(records.iter().filter(synthesized).count(), reported);
    let report = call(&["trace", "report", &trace]).text();
    assert!(
        report.contains(&format!("synthesis: {reported} command(s), ")),
        "{report}"
    );
    assert!(std::path::Path::new(&s.trace_path("plan.chrome.json")).is_file());
    // Without the flags nothing is recorded and nothing is said.
    let quiet = call(&["corpus", "--plan", "--suite", "oneliners"]);
    assert!(!quiet
        .notes
        .iter()
        .any(|n| n.starts_with("trace:") || n.starts_with("metrics:")));
}

/// The Chrome export is well-formed JSON with one metadata-named track
/// per dataflow graph node and complete-event spans on worker tracks.
#[test]
fn chrome_trace_has_a_track_per_dataflow_node() {
    let s = Scratch::new("chrome");
    let trace = s.trace_path("t.json");
    let records = run_traced(&s, &trace, "2");
    let chrome_path = s.trace_path("t.chrome.json");
    let chrome = std::fs::read_to_string(&chrome_path).expect("chrome companion file");

    // Count graph nodes in the JSONL; each must have a named track (a
    // thread_name metadata event) in the Chrome file.
    let nodes: Vec<(u64, u64, String)> = records
        .iter()
        .filter(|r| r.kind == kq_trace::Kind::Meta && r.cat == "graph" && r.name != "dep")
        .map(|r| (r.si.unwrap(), r.ni.unwrap(), r.name.clone()))
        .collect();
    assert!(chrome.contains("thread_name"), "no track metadata");
    for (si, ni, kind) in &nodes {
        let track = format!("s{} n{ni} {kind}", si + 1);
        assert!(
            chrome.contains(&track),
            "chrome trace missing node track {track:?}"
        );
    }
    assert!(chrome.contains("\"ph\":\"X\""), "no complete events");
}

/// `--metrics` prints the aggregated block through the shared note
/// channel, and a run without tracing flags prints none of it.
#[test]
fn metrics_flag_controls_the_metrics_block() {
    let s = Scratch::new("metrics");
    let with = call(&["run", &s.script, "--workers", "2", "--metrics"]);
    assert!(
        with.notes
            .iter()
            .any(|n| n.starts_with("metrics: span dataflow/")),
        "missing dataflow span metrics: {:?}",
        with.notes
    );
    assert!(
        with.notes
            .iter()
            .any(|n| n.starts_with("metrics: counter dataflow/")),
        "missing dataflow counters: {:?}",
        with.notes
    );
    let without = call(&["run", &s.script, "--workers", "2"]);
    assert!(
        !without.notes.iter().any(|n| n.starts_with("metrics:")),
        "metrics block leaked without --metrics: {:?}",
        without.notes
    );
}

/// The sorted identities of the records a run controls: its graph and its
/// node tasks.
fn dataflow_identities(records: &[kq_trace::Record]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .filter(|r| r.cat == "dataflow" || r.cat == "graph")
        .map(identity)
        .collect();
    keys.sort();
    keys
}

/// A traced and an untraced CLI call at the same time: the untraced run
/// executes entirely inside the traced run's session window (the channel
/// handshake forces it), and the trace must equal a trace taken alone.
#[test]
fn an_untraced_run_alongside_a_traced_one_leaves_no_records() {
    let s = Scratch::new("alongside");
    let alone = dataflow_identities(&run_traced(&s, &s.trace_path("alone.json"), "2"));

    let (inside_tx, inside_rx) = std::sync::mpsc::channel::<()>();
    let (ran_tx, ran_rx) = std::sync::mpsc::channel::<()>();
    let scratch = &s;
    let records = std::thread::scope(|scope| {
        scope.spawn(move || {
            let s = scratch;
            inside_rx.recv().unwrap();
            // A whole run — planning, synthesis pool, scheduler pool.
            let out = call(&["run", &s.script, "--workers", "2"]);
            assert!(!out.notes.iter().any(|n| n.starts_with("trace:")));
            ran_tx.send(()).unwrap();
        });
        let session = kq_trace::TraceSession::start();
        inside_tx.send(()).unwrap();
        ran_rx.recv().unwrap();
        // Only now does the traced thread do its own work.
        let trace = s.trace_path("with-neighbour.json");
        let inner = run_traced(&s, &trace, "2");
        (session.finish(), inner)
    });
    let (outer, inner) = records;
    assert_eq!(dataflow_identities(&inner), alone);
    // The enclosing session saw nothing of the untraced neighbour, and
    // nothing of the nested CLI session either.
    assert!(
        dataflow_identities(&outer).is_empty(),
        "records leaked into a session that ran nothing: {outer:?}"
    );
}

/// Two traced CLI calls over different scripts, forced to overlap: each
/// trace holds exactly what the same call records on its own.
#[test]
fn two_traced_runs_at_once_produce_disjoint_traces() {
    let s = Scratch::new("disjoint");
    let other = format!(
        "cat {} | cut -d ' ' -f 2 | sort -u",
        s.dir.join("in.txt").display()
    );
    let alone_a = dataflow_identities(&run_traced(&s, &s.trace_path("a0.json"), "2"));
    let alone_b = dataflow_identities(&run_traced_script(&other, &s.trace_path("b0.json"), "2"));
    assert_ne!(alone_a, alone_b, "the two scripts must be told apart");

    for round in 0..4 {
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                barrier.wait();
                run_traced(&s, &s.trace_path(&format!("a{round}.json")), "2")
            });
            let b = scope.spawn(|| {
                barrier.wait();
                run_traced_script(&other, &s.trace_path(&format!("b{round}.json")), "2")
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(dataflow_identities(&a), alone_a, "round {round}");
        assert_eq!(dataflow_identities(&b), alone_b, "round {round}");
    }
}
