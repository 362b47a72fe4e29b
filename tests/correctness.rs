//! Tier-1 correctness harness: replays the checked-in fuzz regression
//! corpus and runs the depth-bounded model checker over every TEE state
//! machine.
//!
//! Each corpus file under `tests/fuzz_corpus/` is an input that once
//! crashed, misclassified, or silently slipped past one of the workspace
//! parsers; replaying them here under plain `cargo test -q` keeps every
//! harvested bug fixed. The model-check smoke proves the five machines
//! (RMP, Secure-EPT, CCA granule table, TDISP, live migration) hold their
//! security invariants over *every* operation sequence up to the default
//! depth.

use std::io::{Cursor, Read, Write};

use confbench_httpd::{HttpError, Request};
use confbench_types::CampaignSpec;

/// HTTP corpus: each input with the status its rejection must carry.
const HTTP_CORPUS: [(&str, &[u8], u16); 6] = [
    // Non-UTF-8 bytes used to surface as Io(InvalidData), not Malformed.
    ("non_utf8_request_line", include_bytes!("fuzz_corpus/http/non_utf8_request_line.bin"), 400),
    ("non_utf8_header", include_bytes!("fuzz_corpus/http/non_utf8_header.bin"), 400),
    // A double space yields an empty target token; it used to parse as "".
    ("empty_target", include_bytes!("fuzz_corpus/http/empty_target.bin"), 400),
    // `u64::parse` accepts "+3"; DIGIT-only framing must not.
    ("plus_content_length", include_bytes!("fuzz_corpus/http/plus_content_length.bin"), 400),
    ("dup_content_length", include_bytes!("fuzz_corpus/http/dup_content_length.bin"), 400),
    ("huge_content_length", include_bytes!("fuzz_corpus/http/huge_content_length.bin"), 413),
];

/// Every HTTP corpus input must yield a typed parse error with the right
/// status — never a panic, never an `Io` misclassification, never an accept.
#[test]
fn http_corpus_replays_clean() {
    for (name, raw, status) in HTTP_CORPUS {
        let err = Request::read_from(&mut Cursor::new(raw.to_vec()))
            .expect_err(&format!("{name} must be rejected"));
        assert!(!matches!(err, HttpError::Io(_)), "{name} misclassified as I/O: {err}");
        assert_eq!(err.status(), status, "{name}: {err}");
        // Split reads: the verdict does not depend on where the bytes were cut.
        for cut in 0..raw.len() {
            let err = Request::read_from(&mut raw[..cut].chain(&raw[cut..]))
                .expect_err(&format!("{name} cut at {cut} must be rejected"));
            assert_eq!(err.status(), status, "{name} cut at {cut}: {err}");
        }
    }
}

/// The HTTP corpus against the parser the daemon runs: each input, sent to
/// a live server whole and then in two writes cut at every byte, is answered
/// with its status and `connection: close`. The server may answer the first
/// part and close before the second arrives, so that write may be reset.
#[test]
fn http_corpus_replays_clean_on_a_live_server() {
    use std::io::ErrorKind;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    use confbench_fleet::{Fleet, FleetConfig};
    use confbench_httpd::{Response, ServerConfig};
    use confbench_types::TeePlatform;

    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    for (name, raw, status) in HTTP_CORPUS {
        for cut in std::iter::once(raw.len()).chain(1..raw.len()) {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            stream.write_all(&raw[..cut]).unwrap();
            if let Err(e) = stream.write_all(&raw[cut..]) {
                let reset = matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe);
                assert!(reset, "{name} cut at {cut}: second write failed with {e}");
            }
            let response = Response::read_from(&mut stream)
                .unwrap_or_else(|e| panic!("{name} cut at {cut}: no answer: {e}"));
            assert_eq!(response.status, status, "{name} cut at {cut}");
            let connection = response.headers.get("connection").map(String::as_str);
            assert_eq!(connection, Some("close"), "{name} cut at {cut}");
        }
    }
}

/// Campaign corpus: adversarial specs must be refused at admission with the
/// documented status — size rejections as 413, malformed ones as 400.
#[test]
fn campaign_corpus_replays_clean() {
    let corpus: [(&str, &[u8], u16); 4] = [
        // 40 × 60 × 7 × 7 = 117 600 cells from a ~1 KiB body.
        ("too_many_cells", include_bytes!("fuzz_corpus/campaign/too_many_cells.json"), 413),
        // u32::MAX trials a cell: one worker for hours, reports toward OOM.
        ("too_many_trials", include_bytes!("fuzz_corpus/campaign/too_many_trials.json"), 413),
        ("zero_trials", include_bytes!("fuzz_corpus/campaign/zero_trials.json"), 400),
        ("zero_deadline", include_bytes!("fuzz_corpus/campaign/zero_deadline.json"), 400),
    ];
    for (name, raw, status) in corpus {
        let spec: CampaignSpec = serde_json::from_slice(raw).expect(name); // the JSON itself is well-formed
        let err = spec.validate().expect_err(&format!("{name} must be refused"));
        assert_eq!(
            confbench_types::Error::from(err).rest_status(),
            status,
            "{name}: wrong admission status"
        );
    }
}

/// A trial count above `MAX_TRIALS` is refused 413 on all four routes that
/// take one — the corpus spec on both campaign routes, `u32::MAX` trials on
/// both run routes — before anything launches, queues or executes; a zero
/// deadline on `/v1/run` is a 400.
#[test]
fn too_many_trials_are_refused_413_on_every_route_before_anything_executes() {
    use std::sync::Arc;

    use confbench::{FunctionStore, HostAgent, HostConfig, ManualClock};
    use confbench_fleet::{Fleet, FleetConfig};
    use confbench_httpd::{Client, Method, ServerConfig};
    use confbench_obs::{MetricsRegistry, SpanRecorder};
    use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};

    let campaign: CampaignSpec =
        serde_json::from_slice(include_bytes!("fuzz_corpus/campaign/too_many_trials.json"))
            .unwrap();
    let function = FunctionSpec::new("factors", Language::Go).arg("360360");
    let run = RunRequest::new(function, VmTarget::secure(TeePlatform::Tdx)).trials(u32::MAX);
    fn post(addr: std::net::SocketAddr, path: &str, body: &impl serde::Serialize) -> u16 {
        Client::new(addr).send(&Request::new(Method::Post, path).json(body)).unwrap().status
    }

    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        clock: Arc::new(ManualClock::new()),
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    assert_eq!(post(server.addr(), "/v1/run", &run), 413);
    assert_eq!(post(server.addr(), "/v1/campaigns", &campaign), 413);
    assert_eq!(post(server.addr(), "/v1/fleet/campaigns", &campaign), 413);
    assert_eq!(post(server.addr(), "/v1/run", &run.clone().trials(1).deadline_ms(0)), 400);
    assert_eq!(fleet.gateway().served_counts(TeePlatform::Tdx).unwrap().iter().sum::<u64>(), 0);
    assert_eq!(fleet.shard_metrics(0).counter_value("launch_cache_misses_total"), None);

    let registry = Arc::new(MetricsRegistry::new());
    let config = HostConfig { metrics: Arc::clone(&registry), ..HostConfig::default() };
    let store = Arc::new(FunctionStore::new());
    let host = HostAgent::with_config(TeePlatform::Tdx, store, SpanRecorder::default(), config);
    let host_server = Arc::new(host).serve().unwrap();
    assert_eq!(post(host_server.addr(), "/v1/execute", &run), 413);
    assert_eq!(registry.counter_value("launch_cache_misses_total"), None);

    assert!(fleet.status().iter().all(|shard| shard.queue_depth == 0));
}

/// Attestation-wire corpus: every framing violation decodes to the matching
/// typed error.
#[test]
fn attest_corpus_replays_clean() {
    use confbench_attest::wire::{decode, WireError};
    assert!(matches!(
        decode(include_bytes!("fuzz_corpus/attest/bad_magic.bin")),
        Err(WireError::BadMagic(_))
    ));
    assert!(matches!(
        decode(include_bytes!("fuzz_corpus/attest/unknown_kind.bin")),
        Err(WireError::UnknownKind(9))
    ));
    assert!(matches!(
        decode(include_bytes!("fuzz_corpus/attest/truncated_quote.bin")),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        decode(include_bytes!("fuzz_corpus/attest/oversized_tcb_len.bin")),
        Err(WireError::FieldTooLong { field: "tcb_version", .. })
    ));
    assert!(matches!(
        decode(include_bytes!("fuzz_corpus/attest/trailing_snp.bin")),
        Err(WireError::TrailingBytes(1))
    ));
}

/// Migration-wire corpus: every harvested framing violation decodes to the
/// matching typed error — never a panic, never a silent accept.
#[test]
fn migrate_corpus_replays_clean() {
    use confbench_fleet::{MigrationFrame, WireError, MAX_PAGES_PER_FRAME};
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/bad_magic.bin")),
        Err(WireError::BadMagic(_))
    ));
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/unknown_kind.bin")),
        Err(WireError::UnknownKind(9))
    ));
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/truncated_state.bin")),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/oversized_pages.bin")),
        Err(WireError::FieldTooLong { field: "pages", len, .. }) if len > MAX_PAGES_PER_FRAME
    ));
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/trailing_commit.bin")),
        Err(WireError::TrailingBytes(1))
    ));
    assert!(matches!(
        MigrationFrame::decode(include_bytes!("fuzz_corpus/migrate/bad_utf8_session.bin")),
        Err(WireError::BadUtf8("session"))
    ));
}

/// Model-check smoke: every TEE state machine closes under the default
/// depth with zero invariant violations. A regression in any simulator's
/// transition rules (e.g. re-admitting the SEPT hpa-aliasing bug) fails
/// this test with a minimal counterexample trace in the message.
#[test]
fn model_check_smoke_all_machines_hold() {
    let reports = confbench_mc::check_all(&confbench_mc::CheckConfig::default());
    assert_eq!(reports.len(), 5);
    for report in reports {
        assert!(
            report.violations.is_empty(),
            "machine {} violated invariants:\n{}",
            report.machine,
            report.render()
        );
        assert!(report.closed, "machine {} did not close at the default depth", report.machine);
    }
}
