//! The daemon's one router: the gateway's routes, the campaign routes and
//! `/v1/metrics` for every deployment, plus `/v1/fleet` and
//! `/v1/migrations`. Everything lives under `/v1`.

use std::sync::Arc;

use confbench_httpd::{Method, Response, Router, Server, ServerConfig};
use confbench_types::{TeePlatform, VmKind, VmTarget};
use serde::{Deserialize, Serialize};

use crate::fleet::Fleet;
use crate::migrate::{MigrationConfig, MigrationRecord};

/// `POST /v1/migrations` request body.
#[derive(Debug, Deserialize)]
struct MigrationRequest {
    platform: TeePlatform,
    #[serde(default)]
    kind: Option<VmKind>,
    #[serde(default)]
    max_rounds: Option<u32>,
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
    /// Builds the daemon's REST router:
    ///
    /// * the routes of [`confbench::Gateway::add_routes`] — `/v1/run`,
    ///   `/v1/functions`, `/v1/attest/*`, `/v1/health` — on shard 0's
    ///   gateway, over the fleet's shared store and attestation service;
    /// * the campaign routes of [`confbench_sched::rest`] — `/v1/campaigns`,
    ///   `/v1/jobs/{id}` — on shard 0's scheduler;
    /// * `GET /v1/metrics` — [`Fleet::metrics_snapshot`], as text or with
    ///   `?format=json` as JSON;
    /// * `GET /v1/fleet` — shard table (alive, queue depth, cache
    ///   hit/miss counters), steal and replacement totals;
    /// * `POST /v1/fleet/campaigns` — place a campaign across the fleet
    ///   (consistent-hash on each cell's content address; a cell the
    ///   harvest holds is answered at placement and queued nowhere);
    /// * `GET /v1/fleet/campaigns/{id}` — harvest-judged progress;
    /// * `POST /v1/fleet/shards/{id}/drain` — graceful drain: cache
    ///   entries migrate to new owners, orphaned cells re-place;
    /// * `POST /v1/fleet/shards/{id}/kill` — abrupt kill: unharvested
    ///   work re-places and re-executes on the survivors (shard 0, which
    ///   serves the routes above, answers 409 to both);
    /// * `POST /v1/migrations` — run a live migration for a platform,
    ///   returning the measured report (downtime, rounds, pages);
    /// * `GET /v1/migrations` — reports of migrations run so far.
    ///
    /// The routes that queue work — both campaign routes and the two shard
    /// retirements — wake the drivers only once their answer is written; a
    /// fleet campaign that queued nothing wakes none.
    pub fn build_router(self: &Arc<Self>) -> Router {
        let mut router = Router::new();
        self.gateway().add_routes(&mut router);
        let fleet = Arc::clone(self);
        confbench_sched::rest::add_routes(&mut router, Arc::clone(self.scheduler()), move || {
            fleet.wake();
        });
        let fleet = Arc::clone(self);
        confbench::add_metrics_route(&mut router, move || fleet.metrics_snapshot());

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
            match fleet.place(spec) {
                // Nothing queued, no driver to wake: the harvest answered
                // every cell.
                Ok((receipt, 0)) => Response::json(&receipt),
                Ok((receipt, _)) => {
                    let fleet = Arc::clone(&fleet);
                    Response::json(&receipt).after_answer(move || fleet.wake())
                }
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
            shard_action(&fleet, &params["id"], true)
        });

        let fleet = Arc::clone(self);
        router.add(Method::Post, "/v1/fleet/shards/:id/kill", move |_, params| {
            shard_action(&fleet, &params["id"], false)
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
                Ok(report) => Response::json(&MigrationRecord::from(&report)),
                Err(e) => Response::error(409, format!("migration aborted: {e}")),
            }
        });

        let fleet = Arc::clone(self);
        router.add(Method::Get, "/v1/migrations", move |_, _| Response::json(&fleet.migrations()));

        router
    }

    /// Serves [`Fleet::build_router`] on `listen` (e.g. `127.0.0.1:0`) with
    /// the connection layer `http`. Backpressure 503s hint the shards'
    /// retry policy in `Retry-After`, as their 429s do.
    ///
    /// # Errors
    ///
    /// Socket bind/listen errors.
    pub fn serve_on(self: &Arc<Self>, listen: &str, http: ServerConfig) -> std::io::Result<Server> {
        let http = ServerConfig {
            retry_after_secs: self.gateway().retry_policy().retry_after_secs(),
            ..http
        };
        let metrics = Arc::clone(self.metrics());
        Server::build(self.build_router()).config(http).metrics(metrics).spawn(listen)
    }
}

/// Retires a shard, gracefully or not; the drivers wake for the re-placed
/// cells once the answer is written.
fn shard_action(fleet: &Arc<Fleet>, raw_id: &str, graceful: bool) -> Response {
    let Ok(id) = raw_id.parse::<usize>() else {
        return Response::error(400, format!("bad shard id {raw_id:?}"));
    };
    if id >= fleet.shard_count() {
        return Response::error(404, format!("unknown shard {id}"));
    }
    // Shard 0 serves `/v1/run`, `/v1/campaigns` and `/v1/jobs`; with one
    // shard this is also the last-alive rule.
    if id == 0 {
        return Response::error(409, "shard 0 serves /v1/campaigns and /v1/jobs; it cannot retire");
    }
    let replaced = fleet.retire_shard(id, graceful);
    let fleet = Arc::clone(fleet);
    Response::json(&serde_json::json!({
        "shard": id,
        "alive": false,
        "cells_replaced": replaced,
    }))
    .after_answer(move || fleet.wake())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use confbench_httpd::Request;
    use confbench_types::ManualClock;

    fn fleet() -> Arc<Fleet> {
        fleet_of(3)
    }

    fn fleet_of(shards: usize) -> Arc<Fleet> {
        Arc::new(Fleet::new(FleetConfig {
            shards,
            seed: 7,
            clock: Arc::new(ManualClock::new()),
            ..FleetConfig::default()
        }))
    }

    fn body(resp: &Response) -> serde_json::Value {
        serde_json::from_slice(&resp.body).unwrap()
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
        for path in ["/v1/fleet/shards/1/kill", "/v1/fleet/shards/2/drain"] {
            assert_eq!(router.dispatch(&Request::new(Method::Post, path)).status, 200, "{path}");
        }
        for path in ["/v1/fleet/shards/0/kill", "/v1/fleet/shards/0/drain"] {
            let resp = router.dispatch(&Request::new(Method::Post, path));
            assert_eq!(resp.status, 409, "{path}: {}", String::from_utf8_lossy(&resp.body));
        }
        assert_eq!(f.alive_shards(), vec![0]);
        // A dead shard is still a no-op 200, and the fleet still places.
        assert_eq!(
            router.dispatch(&Request::new(Method::Post, "/v1/fleet/shards/1/kill")).status,
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
        let wakes = f.wakes();
        drop(resp);
        assert_eq!(f.wakes(), wakes + 1, "queued cells wake the drivers once answered");

        f.drain();
        let progress = |id: &str| {
            let resp =
                router.dispatch(&Request::new(Method::Get, &format!("/v1/fleet/campaigns/{id}")));
            assert_eq!(resp.status, 200);
            body(&resp)
        };
        let status = progress(&id);
        assert_eq!(status["complete"], true, "{status:?}");

        // The same spec again: the harvest answers both cells at placement,
        // with the same receipt shape, and no driver wakes.
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/fleet/campaigns").json(&spec));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let receipt = body(&resp);
        assert_eq!(receipt["jobs"], 2);
        drop(resp);
        assert_eq!(f.wakes(), wakes + 1, "nothing queued, no driver woken");
        let status = progress(receipt["id"].as_str().unwrap());
        assert_eq!((status["done"].as_u64(), status["complete"].as_bool()), (Some(2), Some(true)));
        let text = router.dispatch(&Request::new(Method::Get, "/v1/metrics"));
        let text = String::from_utf8_lossy(&text.body);
        assert!(text.contains("fleet_cells_from_harvest_total 2\n"), "{text}");
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

    /// SHA-256 over the bodies `response_bodies_are_pinned` reads, one a
    /// line, as served when every finished job kept its summary and its
    /// span tree whole.
    const RESPONSE_ORACLE_DIGEST: &str =
        "c73a0796ae35b75fae92e8144d95bf943b39628023c37fd8b7c8a3e2cccfcc17";

    /// A GET through the router, which must answer 200.
    fn get(router: &Router, path: &str) -> Response {
        let resp = router.dispatch(&Request::new(Method::Get, path));
        assert_eq!(resp.status, 200, "{path}: {}", String::from_utf8_lossy(&resp.body));
        resp
    }

    /// The response oracle. A fig6-shaped campaign of 350 cells (25
    /// functions × 7 languages × both modes on TDX, the first function
    /// unknown, so its 14 cells fail) goes through `POST /v1/campaigns` on
    /// three shards under a manual clock, then again (every other cell a
    /// cache hit), then through `POST /v1/fleet/campaigns` (the harvest
    /// answers 336 cells, the 14 failing ones are placed and fail again).
    /// Every campaign shard 0 holds, every job of it, and the fleet
    /// campaign answer byte for byte what they answered before.
    #[test]
    fn response_bodies_are_pinned() {
        use confbench_types::{CampaignFunction, Language};
        let f = fleet();
        let router = f.build_router();
        let function = |i: usize| match i {
            0 => CampaignFunction::new("nope"),
            _ => CampaignFunction::new("factors").arg((360 + i).to_string()),
        };
        let spec = confbench_types::CampaignSpec {
            functions: (0..25).map(function).collect(),
            languages: Language::ALL.to_vec(),
            ..spec()
        };
        for _ in 0..2 {
            let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&spec));
            assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
            f.drain();
        }
        let resp = router.dispatch(&Request::new(Method::Post, "/v1/fleet/campaigns").json(&spec));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let fleet_id = body(&resp)["id"].as_str().unwrap().to_owned();
        drop(resp);
        f.drain();

        let mut bodies = Vec::new();
        let fleet_status = get(&router, &format!("/v1/fleet/campaigns/{fleet_id}"));
        let view = body(&fleet_status);
        assert_eq!((view["done"].as_u64(), view["failed"].as_u64()), (Some(336), Some(14)));
        bodies.push(fleet_status.body);
        for n in 1.. {
            let path = format!("/v1/campaigns/c{n}");
            if router.dispatch(&Request::new(Method::Get, &path)).status == 404 {
                break;
            }
            let status = get(&router, &path);
            let view = body(&status);
            if n == 2 {
                assert_eq!(
                    (view["cache_hits"].as_u64(), view["failed"].as_u64()),
                    (Some(336), Some(14))
                );
            }
            bodies.push(status.body);
            for job in 0..view["total_jobs"].as_u64().unwrap() {
                bodies.push(get(&router, &format!("/v1/jobs/c{n}-j{job}")).body);
            }
        }
        // The fleet campaign, `c1` and `c2` with 350 jobs each, and `c3`:
        // the 5 failing cells the fleet placed on shard 0.
        assert_eq!(bodies.len(), 1 + 2 * 351 + 6);
        let traced =
            bodies.iter().filter(|b| b.windows(15).any(|w| w == b"\"sched.execute\"")).count();
        // Every job that executed: all of `c1`, and the failing cells of `c2`
        // and `c3`, which no cache answers.
        assert_eq!(traced, 350 + 14 + 5, "every executed job answers its span tree");
        let text = bodies.join(&b'\n');
        assert_eq!(confbench_crypto::Sha256::digest(&text).to_string(), RESPONSE_ORACLE_DIGEST);
    }

    /// Every route on a three-shard fleet: health, summed metrics, and a
    /// `/v1/campaigns` campaign that the idle shards steal from shard 0,
    /// with cells byte-identical to a one-shard fleet's; shard 0 stays.
    #[test]
    fn one_router_serves_every_route_on_three_shards() {
        let f = fleet();
        let router = f.build_router();
        assert_eq!(router.dispatch(&Request::new(Method::Get, "/v1/health")).status, 200);

        let spec = confbench_types::CampaignSpec {
            functions: ["360360", "720720", "30030"]
                .map(|a| confbench_types::CampaignFunction::new("factors").arg(a))
                .to_vec(),
            ..spec()
        };
        let cells = |f: &Arc<Fleet>| {
            let router = f.build_router();
            let resp = router.dispatch(&Request::new(Method::Post, "/v1/campaigns").json(&spec));
            assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
            f.drain();
            let id = body(&resp)["id"].as_str().unwrap().to_owned();
            let status =
                body(&router.dispatch(&Request::new(Method::Get, &format!("/v1/campaigns/{id}"))));
            assert_eq!(status["completed"], 6, "{status:?}");
            serde_json::to_string(&status["cells"]).unwrap()
        };
        assert_eq!(cells(&f), cells(&fleet_of(1)), "three shards answer as one");
        assert!(f.steals() > 0, "idle shards steal shard 0's campaign");

        let text = router.dispatch(&Request::new(Method::Get, "/v1/metrics"));
        assert!(String::from_utf8_lossy(&text.body).contains("# TYPE fleet_steals_total counter"));
        let json = body(&router.dispatch(&Request::new(Method::Get, "/v1/metrics?format=json")));
        let misses: u64 = (0..3)
            .map(|s| f.shard_metrics(s).counter_value("sched_cache_misses_total").unwrap_or(0))
            .sum();
        assert_eq!((json["counters"]["sched_cache_misses_total"].as_u64(), misses), (Some(6), 6));

        for path in ["/v1/fleet/shards/0/kill", "/v1/fleet/shards/0/drain"] {
            assert_eq!(router.dispatch(&Request::new(Method::Post, path)).status, 409, "{path}");
        }
        assert_eq!(f.alive_shards(), vec![0, 1, 2]);
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
