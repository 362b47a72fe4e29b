//! The scheduler's REST surface.
//!
//! Mounted by the daemon next to the gateway's routes, all under `/v1`:
//!
//! | method | path                  | status | body |
//! |--------|-----------------------|--------|------|
//! | POST   | `/v1/campaigns`       | 202    | [`CampaignReceipt`](confbench_types::CampaignReceipt) |
//! | GET    | `/v1/campaigns/{id}`  | 200    | [`CampaignStatus`](confbench_types::CampaignStatus), partial while active |
//! | DELETE | `/v1/campaigns/{id}`  | 200    | post-cancellation [`CampaignStatus`](confbench_types::CampaignStatus) |
//! | GET    | `/v1/jobs/{id}`       | 200    | [`JobStatus`](confbench_types::JobStatus) |
//!
//! Error mapping follows the shared [`Error::rest_status`] table: 400 for a
//! malformed spec, 404 for unknown ids, and 429 — with a `Retry-After`
//! header derived from the gateway's backoff policy — when the bounded
//! queue cannot admit the campaign.

use std::sync::Arc;

use confbench_httpd::{Method, Response, Router};
use confbench_types::{CampaignId, CampaignSpec, Error, JobId};

use crate::scheduler::{Scheduler, SubmitError};

/// Registers the campaign and job routes on `router`. `admitted` runs
/// once the receipt of every campaign the scheduler admits is written
/// ([`Response::after_answer`]): whatever steps the scheduler learns there
/// is work, and the receipt does not wait behind it.
pub fn add_routes(
    router: &mut Router,
    sched: Arc<Scheduler>,
    admitted: impl Fn() + Send + Sync + 'static,
) {
    let s = Arc::clone(&sched);
    let admitted = Arc::new(admitted);
    router.add(Method::Post, "/v1/campaigns", move |req, _| {
        let spec: CampaignSpec = match req.body_json() {
            Ok(spec) => spec,
            Err(e) => return Response::error(400, format!("invalid campaign spec: {e}")),
        };
        match s.submit(spec) {
            Ok(receipt) => {
                let admitted = Arc::clone(&admitted);
                let mut resp = Response::json(&receipt).after_answer(move || admitted());
                resp.status = 202;
                resp
            }
            Err(e) => submit_error_response(e),
        }
    });

    let s = Arc::clone(&sched);
    router.add(Method::Get, "/v1/campaigns/:id", move |_, params| {
        match s.campaign_status(&CampaignId(params["id"].clone())) {
            Some(status) => Response::json(&status),
            None => not_found("campaign", &params["id"]),
        }
    });

    let s = Arc::clone(&sched);
    router.add(Method::Delete, "/v1/campaigns/:id", move |_, params| {
        match s.cancel_campaign(&CampaignId(params["id"].clone())) {
            Some(status) => Response::json(&status),
            None => not_found("campaign", &params["id"]),
        }
    });

    let s = sched;
    router.add(Method::Get, "/v1/jobs/:id", move |_, params| {
        match s.job_status(&JobId(params["id"].clone())) {
            Some(status) => Response::json(&status),
            None => not_found("job", &params["id"]),
        }
    });
}

/// Renders a refused submission per the shared [`Error::rest_status`]
/// table — 400 for a malformed spec, 413 for a well-formed but oversized
/// one, 429 plus `Retry-After` when the queue cannot admit it. Every
/// campaign-submitting route answers through this one function.
pub fn submit_error_response(e: SubmitError) -> Response {
    let retry_after = match &e {
        SubmitError::QueueFull { retry_after_secs, .. } => Some(*retry_after_secs),
        SubmitError::Invalid(_) => None,
    };
    let err = Error::from(e);
    let mut resp = Response::error(err.rest_status(), err.to_string());
    if let Some(secs) = retry_after {
        resp.headers.insert("retry-after".into(), secs.to_string());
    }
    resp
}

fn not_found(kind: &str, id: &str) -> Response {
    Response::error(404, format!("unknown {kind}: {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_httpd::Request;
    use confbench_types::{
        CampaignFunction, CampaignReceipt, CampaignStatus, JobStatus, Language, ManualClock,
        Priority, Result, RunRequest, RunResult, TeePlatform, VmKind,
    };

    use crate::{Executor, SchedulerConfig};

    struct Echo;
    impl Executor for Echo {
        fn execute(&self, req: &RunRequest) -> Result<RunResult> {
            let trial_ms = vec![2.0; req.trials as usize];
            Ok(RunResult {
                function: req.function.name.clone(),
                language: req.function.language,
                target: req.target,
                stats: RunResult::compute_stats(&trial_ms),
                trial_ms,
                trial_cycles: Vec::new(),
                perf: Default::default(),
                output: "ok".into(),
                trace: None,
            })
        }
        fn function_fingerprint(&self, _name: &str) -> Option<String> {
            Some("src".into())
        }
    }

    fn router(capacity: usize) -> (Router, Arc<Scheduler>) {
        let clock = Arc::new(ManualClock::new());
        let config = SchedulerConfig {
            queue_capacity: capacity,
            retry_after_secs: 7,
            ..SchedulerConfig::default()
        };
        let sched = Arc::new(Scheduler::new(Arc::new(Echo), clock, config));
        let mut router = Router::new();
        add_routes(&mut router, Arc::clone(&sched), || ());
        (router, sched)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            functions: vec![CampaignFunction::new("fib").arg("10")],
            languages: vec![Language::Go],
            platforms: vec![TeePlatform::Tdx],
            modes: vec![VmKind::Secure],
            trials: 2,
            seed: 0,
            priority: Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    #[test]
    fn submit_poll_and_job_lookup() {
        let (router, sched) = router(16);
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&spec()));
        assert_eq!(resp.status, 202);
        let receipt: CampaignReceipt = resp.body_json().unwrap();
        assert_eq!(receipt.jobs, 1);

        sched.drain();
        let resp =
            router.dispatch(&Request::new(Method::Get, &format!("/v1/campaigns/{}", receipt.id)));
        assert_eq!(resp.status, 200);
        let status: CampaignStatus = resp.body_json().unwrap();
        assert_eq!(status.completed, 1);

        let job = &status.cells[0].job;
        let resp = router.dispatch(&Request::new(Method::Get, &format!("/v1/jobs/{job}")));
        assert_eq!(resp.status, 200);
        let job: JobStatus = resp.body_json().unwrap();
        assert!(job.summary.is_some());
    }

    #[test]
    fn unknown_ids_are_404() {
        let (router, _sched) = router(16);
        assert_eq!(router.dispatch(&Request::new(Method::Get, "/v1/campaigns/cX")).status, 404);
        assert_eq!(router.dispatch(&Request::new(Method::Delete, "/v1/campaigns/cX")).status, 404);
        assert_eq!(router.dispatch(&Request::new(Method::Get, "/v1/jobs/cX-j0")).status, 404);
    }

    #[test]
    fn malformed_and_invalid_specs_are_400() {
        let (router, _sched) = router(16);
        let mut req = Request::new(Method::Post, "/v1/campaigns");
        req.body = b"not json".to_vec();
        assert_eq!(router.dispatch(&req).status, 400);

        let mut bad = spec();
        bad.trials = 0;
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&bad));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("trials"));
    }

    #[test]
    fn queue_full_maps_to_429_with_retry_after() {
        let (router, _sched) = router(1);
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&spec()));
        assert_eq!(resp.status, 202);
        let mut big = spec();
        big.languages = vec![Language::Go, Language::Lua];
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&big));
        assert_eq!(resp.status, 429);
        assert_eq!(resp.headers.get("retry-after").map(String::as_str), Some("7"));
        assert!(String::from_utf8_lossy(&resp.body).contains("queue full"));
    }

    #[test]
    fn adversarial_spec_is_refused_with_413_before_expansion() {
        use std::time::Instant;

        // 10k × 10k × 1 × 1 would be 100M cells (at hundreds of bytes each,
        // a queue-time OOM). Admission must refuse it by arithmetic alone.
        let mut huge = spec();
        huge.functions = (0..10_000).map(|i| CampaignFunction::new(format!("f{i}"))).collect();
        huge.languages = vec![Language::Go; 10_000];
        let (router, sched) = router(16);
        let started = Instant::now();
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&huge));
        assert_eq!(resp.status, 413);
        assert!(String::from_utf8_lossy(&resp.body).contains("payload too large"));
        assert!(started.elapsed().as_secs() < 5, "rejection must not expand the matrix");

        // An oversized single axis is likewise a 413.
        let mut long_axis = spec();
        long_axis.languages = vec![Language::Go; confbench_types::MAX_AXIS_LEN + 1];
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&long_axis));
        assert_eq!(resp.status, 413);

        // Nothing was enqueued by either refusal.
        assert_eq!(sched.metrics().counter_value("sched_jobs_enqueued_total").unwrap_or(0), 0);
    }

    #[test]
    fn configured_max_cells_tightens_admission() {
        let clock = Arc::new(ManualClock::new());
        let config = SchedulerConfig { max_cells: 1, ..SchedulerConfig::default() };
        let sched = Scheduler::new(Arc::new(Echo), clock, config);
        let mut two_cells = spec();
        two_cells.languages = vec![Language::Go, Language::Lua];
        let err = sched.submit(two_cells).unwrap_err();
        assert_eq!(Error::from(err).rest_status(), 413);
        assert!(sched.submit(spec()).is_ok(), "within the tightened cap");
    }

    #[test]
    fn fuzz_sweep_campaign_spec_json() {
        let (router, _sched) = router(256);
        let corpus: Vec<Vec<u8>> = vec![
            serde_json::to_vec(&spec()).unwrap(),
            br#"{"functions":[{"name":"fib","args":["10"]}],"languages":["go"],
                 "platforms":["tdx"],"modes":["secure"],"trials":2,
                 "deadline_ms":50,"priority":"high","device":"gpu"}"#
                .to_vec(),
        ];
        let mut mutator = confbench_crypto::fuzz::Mutator::new(0xC0FF_BE7C_0003);
        let iters = confbench_crypto::fuzz::sweep_iters();
        for base in &corpus {
            for _ in 0..iters {
                let mut req = Request::new(Method::Post, "/v1/campaigns");
                req.body = mutator.mutate(base);
                // Property: admission never panics and always answers with a
                // status from the documented table — 202 accepted, 400/413
                // refused, 429 full. Anything else (500, an Err bubbling as
                // a panic) is a bug in spec decoding or validation.
                let resp = router.dispatch(&req);
                assert!(
                    matches!(resp.status, 202 | 400 | 413 | 429),
                    "unexpected status {} for mutant {:?}",
                    resp.status,
                    String::from_utf8_lossy(&req.body)
                );
            }
        }
    }

    #[test]
    fn cancel_over_rest() {
        let (router, sched) = router(16);
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&spec()));
        let receipt: CampaignReceipt = resp.body_json().unwrap();
        let resp = router
            .dispatch(&Request::new(Method::Delete, &format!("/v1/campaigns/{}", receipt.id)));
        assert_eq!(resp.status, 200);
        let status: CampaignStatus = resp.body_json().unwrap();
        assert_eq!(status.cancelled, 1);
        sched.drain();
        let status = sched.campaign_status(&receipt.id).unwrap();
        assert_eq!(status.completed, 0, "cancelled job never ran");
    }
}
