//! REST surface of the fleet: `/v1/fleet` and `/v1/migrations`.
//!
//! Mirrors the gateway's route conventions (everything under `/v1`) so
//! fleet deployments and single-gateway deployments speak the same dialect.

use std::sync::Arc;

use confbench_httpd::{Method, Response, Router, Server};
use confbench_types::{TeePlatform, VmKind, VmTarget};
use serde::{Deserialize, Serialize};

use crate::fleet::Fleet;
use crate::migrate::{MigrationConfig, MigrationReport};

/// `POST /v1/migrations` request body.
#[derive(Debug, Deserialize)]
struct MigrationRequest {
    platform: TeePlatform,
    #[serde(default)]
    kind: Option<VmKind>,
    #[serde(default)]
    max_rounds: Option<u32>,
}

/// Serializable view of a [`MigrationReport`] (execution reports of the
/// mid-migration traces are summarized to a count).
#[derive(Debug, Serialize)]
struct MigrationView {
    precopy_rounds: u32,
    precopy_pages: u64,
    stopcopy_pages: u64,
    pages_total: u64,
    downtime_us: u64,
    wire_bytes: usize,
    frames: usize,
    session: String,
    source_executions: usize,
}

impl MigrationView {
    fn from_report(report: &MigrationReport) -> Self {
        MigrationView {
            precopy_rounds: report.precopy_rounds,
            precopy_pages: report.precopy_pages,
            stopcopy_pages: report.stopcopy_pages,
            pages_total: report.pages_total,
            downtime_us: report.downtime_us,
            wire_bytes: report.wire_bytes,
            frames: report.frames,
            session: report.session.clone(),
            source_executions: report.source_reports.len(),
        }
    }
}

#[derive(Debug, Serialize)]
struct FleetView {
    shards: Vec<crate::fleet::ShardStatus>,
    alive: usize,
    steals: u64,
    cells_replaced: u64,
    migrations: usize,
}

impl Fleet {
    /// Builds the fleet's REST router:
    ///
    /// * `GET /v1/fleet` — shard table (alive, queue depth, cache
    ///   hit/miss counters), steal and replacement totals;
    /// * `POST /v1/fleet/campaigns` — place a campaign across the fleet
    ///   (consistent-hash on each cell's content address);
    /// * `GET /v1/fleet/campaigns/{id}` — harvest-judged progress;
    /// * `POST /v1/fleet/shards/{id}/drain` — graceful drain: cache
    ///   entries migrate to new owners, orphaned cells re-place;
    /// * `POST /v1/fleet/shards/{id}/kill` — abrupt kill: unharvested
    ///   work re-places and re-executes on the survivors;
    /// * `POST /v1/migrations` — run a live migration for a platform,
    ///   returning the measured report (downtime, rounds, pages);
    /// * `GET /v1/migrations` — reports of migrations run so far.
    pub fn build_router(self: &Arc<Self>) -> Router {
        let mut router = Router::new();

        let fleet = Arc::clone(self);
        router.add(Method::Get, "/v1/fleet", move |_, _| {
            let shards = fleet.status();
            let view = FleetView {
                alive: shards.iter().filter(|s| s.alive).count(),
                shards,
                steals: fleet.steals(),
                cells_replaced: fleet.metrics().counter("fleet_cells_replaced_total").get(),
                migrations: fleet.migration_count(),
            };
            Response::json(&view)
        });

        let fleet = Arc::clone(self);
        router.add(Method::Post, "/v1/fleet/campaigns", move |req, _| {
            let spec: confbench_types::CampaignSpec = match req.body_json() {
                Ok(spec) => spec,
                Err(e) => return Response::error(400, format!("bad campaign spec: {e}")),
            };
            match fleet.submit(spec) {
                Ok(receipt) => Response::json(&receipt),
                Err(e) => confbench_sched::rest::submit_error_response(e),
            }
        });

        let fleet = Arc::clone(self);
        router.add(Method::Get, "/v1/fleet/campaigns/:id", move |_, params| {
            match fleet.campaign_status(&params["id"]) {
                Some(status) => Response::json(&status),
                None => Response::error(404, format!("unknown fleet campaign {}", params["id"])),
            }
        });

        let fleet = Arc::clone(self);
        router.add(Method::Post, "/v1/fleet/shards/:id/drain", move |_, params| {
            shard_action(&fleet, &params["id"], |f, id| f.drain_shard(id))
        });

        let fleet = Arc::clone(self);
        router.add(Method::Post, "/v1/fleet/shards/:id/kill", move |_, params| {
            shard_action(&fleet, &params["id"], |f, id| f.kill_shard(id))
        });

        let fleet = Arc::clone(self);
        router.add(Method::Post, "/v1/migrations", move |req, _| {
            let body: MigrationRequest = match req.body_json() {
                Ok(body) => body,
                Err(e) => return Response::error(400, format!("bad migration body: {e}")),
            };
            let target =
                VmTarget { platform: body.platform, kind: body.kind.unwrap_or(VmKind::Secure) };
            let mut cfg = MigrationConfig::default();
            if let Some(rounds) = body.max_rounds {
                cfg.max_rounds = rounds;
            }
            // Warm the source with a small deterministic workload so the
            // migration has heap pages and dirty deltas to move.
            let mut warm = confbench_types::OpTrace::new();
            warm.cpu(2_000_000);
            warm.alloc(24 * 4096);
            warm.cpu(500_000);
            match fleet.run_migration(target, &[warm], &cfg) {
                Ok(report) => Response::json(&MigrationView::from_report(&report)),
                Err(e) => Response::error(409, format!("migration aborted: {e}")),
            }
        });

        let fleet = Arc::clone(self);
        router.add(Method::Get, "/v1/migrations", move |_, _| {
            let views: Vec<MigrationView> =
                fleet.migrations().iter().map(MigrationView::from_report).collect();
            Response::json(&views)
        });

        router
    }

    /// Serves the fleet REST surface on `listen` (e.g. `127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Socket bind/listen errors.
    pub fn serve_on(self: &Arc<Self>, listen: &str) -> std::io::Result<Server> {
        let router = self.build_router();
        let metrics = Arc::clone(self.metrics());
        Server::build(router).metrics(metrics).spawn(listen)
    }
}

fn shard_action(
    fleet: &Arc<Fleet>,
    raw_id: &str,
    action: impl Fn(&Fleet, usize) -> usize,
) -> Response {
    let Ok(id) = raw_id.parse::<usize>() else {
        return Response::error(400, format!("bad shard id {raw_id:?}"));
    };
    if id >= fleet.shard_count() {
        return Response::error(404, format!("unknown shard {id}"));
    }
    let replaced = action(fleet, id);
    if fleet.alive_shards().contains(&id) {
        return Response::error(409, format!("shard {id} is the last one alive"));
    }
    Response::json(&serde_json::json!({
        "shard": id,
        "alive": false,
        "cells_replaced": replaced,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use confbench_httpd::Request;
    use confbench_types::ManualClock;

    fn fleet() -> Arc<Fleet> {
        Arc::new(Fleet::new(FleetConfig {
            shards: 3,
            seed: 7,
            clock: Arc::new(ManualClock::new()),
            ..FleetConfig::default()
        }))
    }

    /// One function, one language, TDX, both modes: two cells.
    fn spec() -> confbench_types::CampaignSpec {
        confbench_types::CampaignSpec {
            functions: vec![confbench_types::CampaignFunction::new("factors").arg("360360")],
            languages: vec![confbench_types::Language::Go],
            platforms: vec![confbench_types::TeePlatform::Tdx],
            modes: vec![VmKind::Secure, VmKind::Normal],
            trials: 1,
            seed: 7,
            priority: confbench_types::Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    #[test]
    fn fleet_status_route_reports_shards() {
        let router = fleet().build_router();
        let resp = router.dispatch(&Request::new(Method::Get, "/v1/fleet"));
        assert_eq!(resp.status, 200);
        let view: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(view["alive"], 3);
        assert_eq!(view["shards"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn kill_route_marks_shard_dead() {
        let f = fleet();
        let router = f.build_router();
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/fleet/shards/1/kill"));
        assert_eq!(resp.status, 200);
        let view: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(view["alive"], false);
        assert_eq!(f.alive_shards(), vec![0, 2]);
        // Unknown and malformed ids are typed REST errors.
        assert_eq!(
            router.dispatch(&Request::new(Method::Post, "/v1/fleet/shards/9/kill")).status,
            404
        );
        assert_eq!(
            router.dispatch(&Request::new(Method::Post, "/v1/fleet/shards/x/kill")).status,
            400
        );
    }

    #[test]
    fn last_alive_shard_refuses_kill_and_drain() {
        let f = fleet();
        let router = f.build_router();
        let spec = confbench_types::CampaignSpec {
            platforms: confbench_types::TeePlatform::ALL.to_vec(),
            ..spec()
        };
        let submit = || {
            router.dispatch(&Request::new(Method::Post, "/v1/fleet/campaigns").json(&spec)).status
        };
        // Queued cells make every retirement re-place orphans.
        assert_eq!(submit(), 200);
        for path in ["/v1/fleet/shards/0/kill", "/v1/fleet/shards/1/drain"] {
            assert_eq!(router.dispatch(&Request::new(Method::Post, path)).status, 200, "{path}");
        }
        for path in ["/v1/fleet/shards/2/kill", "/v1/fleet/shards/2/drain"] {
            let resp = router.dispatch(&Request::new(Method::Post, path));
            assert_eq!(resp.status, 409, "{path}: {}", String::from_utf8_lossy(&resp.body));
        }
        assert_eq!(f.alive_shards(), vec![2]);
        // A dead shard is still a no-op 200, and the fleet still places.
        assert_eq!(
            router.dispatch(&Request::new(Method::Post, "/v1/fleet/shards/0/kill")).status,
            200
        );
        assert_eq!(submit(), 200);
    }

    #[test]
    fn migration_route_runs_and_lists() {
        let f = fleet();
        let router = f.build_router();
        let req = Request::new(Method::Post, "/v1/migrations")
            .json(&serde_json::json!({"platform": "tdx"}));
        let resp = router.dispatch(&req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let view: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert!(view["pages_total"].as_u64().unwrap() > 0);
        assert!(view["session"].as_str().unwrap().starts_with("as-"), "{view:?}");

        let list = router.dispatch(&Request::new(Method::Get, "/v1/migrations"));
        let views: serde_json::Value = serde_json::from_slice(&list.body).unwrap();
        assert_eq!(views.as_array().unwrap().len(), 1);
        let status = router.dispatch(&Request::new(Method::Get, "/v1/fleet"));
        let view: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
        assert_eq!(view["migrations"], 1);
    }

    #[test]
    fn campaign_routes_submit_and_report_progress() {
        let f = fleet();
        let router = f.build_router();
        let spec = spec();
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/fleet/campaigns").json(&spec));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let receipt: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(receipt["jobs"], 2);
        let id = receipt["id"].as_str().unwrap().to_owned();

        f.drain();
        let resp =
            router.dispatch(&Request::new(Method::Get, &format!("/v1/fleet/campaigns/{id}")));
        assert_eq!(resp.status, 200);
        let status: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(status["complete"], true, "{status:?}");
        assert_eq!(
            router.dispatch(&Request::new(Method::Get, "/v1/fleet/campaigns/nope")).status,
            404
        );

        // Refusals answer exactly as `POST /v1/campaigns` does: 413 for a
        // well-formed spec that expands past the cell limit...
        let mut oversized = Request::new(Method::Post, "/v1/fleet/campaigns");
        oversized.body =
            include_bytes!("../../../tests/fuzz_corpus/campaign/too_many_cells.json").to_vec();
        assert_eq!(router.dispatch(&oversized).status, 413);
        // ...and 429 with Retry-After when a shard's queue cannot take its
        // share (15 036 cells over three 4096-job queues).
        let flood = confbench_types::CampaignSpec {
            functions: (0..358)
                .map(|i| confbench_types::CampaignFunction::new("factors").arg(i.to_string()))
                .collect(),
            languages: confbench_types::Language::ALL.to_vec(),
            platforms: confbench_types::TeePlatform::ALL.to_vec(),
            ..spec
        };
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/fleet/campaigns").json(&flood));
        assert_eq!(resp.status, 429, "{}", String::from_utf8_lossy(&resp.body));
        assert!(resp.headers.contains_key("retry-after"), "{:?}", resp.headers);
    }

    #[test]
    fn bare_paths_answer_404() {
        let router = fleet().build_router();
        for (method, path) in [
            (Method::Get, "/fleet"),
            (Method::Post, "/fleet/campaigns"),
            (Method::Post, "/fleet/shards/0/drain"),
            (Method::Post, "/migrations"),
            (Method::Get, "/migrations"),
        ] {
            assert_eq!(router.dispatch(&Request::new(method, path)).status, 404, "{path}");
        }
    }
}
