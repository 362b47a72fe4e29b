//! Workload inputs, generated from `--seed`.
//!
//! Everything a daemon receives is built here: the daemon's own `--seed`,
//! campaign specs and their seeds, the `/v1/run` request stream, and the
//! open-loop arrival schedule. The same benchmark seed gives the same
//! inputs, byte for byte. The argument tables live here, not in
//! `confbench-bench`, so the benchmark's inputs cannot drift with the
//! figure binaries.

use confbench_types::{
    CampaignFunction, CampaignSpec, FunctionSpec, Language, Priority, RunRequest, TeePlatform,
    VmKind, VmTarget,
};

/// The five workloads, in the order `run`/`trace` execute them.
pub const WORKLOADS: [&str; 5] =
    ["fig6_cold", "fig6_memo", "run_closed", "run_open", "fleet_mixed"];

/// The workloads `BENCHMARK.json` names, whose end-to-end metrics gate a
/// change. The other two are measured and printed like these but gate
/// nothing, because the sandbox moves them by more than any bound the
/// contract allows (README): `run_open`'s median is the time a halted vCPU
/// takes to wake, and `fig6_memo` allocates, copies and hashes, which the
/// sandbox's slow stretches slow two to three times as much as arithmetic.
pub const GATED: [&str; 3] = ["fig6_cold", "run_closed", "fleet_mixed"];

/// Full runs are what `BENCHMARK.json` measures; smoke runs are a quick
/// self-check whose numbers are never compared with full runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// SplitMix64, kept local so the end-to-end path imports nothing from the
/// program under test but its wire types and HTTP client.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from the benchmark seed, a purpose
/// tag and an index.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
    rng.next_u64() ^ SplitMix64::new(index).next_u64()
}

const TAG_DAEMON: u64 = 1;
const TAG_CAMPAIGN: u64 = 2;
const TAG_RUN: u64 = 3;
const TAG_ORDER: u64 = 4;
const TAG_ARRIVALS: u64 = 5;

/// The `--seed` handed to the daemon under test.
pub fn daemon_seed(seed: u64) -> u64 {
    derive(seed, TAG_DAEMON, 0) >> 16
}

/// One row of an argument table: function name and its arguments.
type ArgRow = (&'static str, &'static [&'static str]);

/// Paper-scale Fig. 6 arguments (the suite's defaults at the time the
/// benchmark was defined).
const PAPER_ARGS: [ArgRow; 25] = [
    ("cpustress", &["120000"]),
    ("memstress", &["48"]),
    ("iostress", &["6"]),
    ("logging", &["3000"]),
    ("factors", &["1234567"]),
    ("filesystem", &["2"]),
    ("ack", &["40", "40"]),
    ("fib", &["18"]),
    ("primes", &["40000"]),
    ("matrix", &["26"]),
    ("quicksort", &["3000"]),
    ("mergesort", &["3000"]),
    ("base64", &["30000"]),
    ("json", &["250"]),
    ("checksum", &["60000"]),
    ("compress", &["30000"]),
    ("mandelbrot", &["48"]),
    ("nbody", &["1500"]),
    ("binarytrees", &["12"]),
    ("spectralnorm", &["48", "4"]),
    ("dijkstra", &["22"]),
    ("wordcount", &["40000"]),
    ("histogram", &["50000"]),
    ("montecarlo", &["25000"]),
    ("strings", &["2500"]),
];

/// Quick-scale arguments: the same 25 functions at a tenth of the work.
const QUICK_ARGS: [ArgRow; 25] = [
    ("cpustress", &["8000"]),
    ("memstress", &["6"]),
    ("iostress", &["2"]),
    ("logging", &["150"]),
    ("factors", &["360360"]),
    ("filesystem", &["1"]),
    ("ack", &["4", "16"]),
    ("fib", &["13"]),
    ("primes", &["4000"]),
    ("matrix", &["12"]),
    ("quicksort", &["600"]),
    ("mergesort", &["600"]),
    ("base64", &["1500"]),
    ("json", &["40"]),
    ("checksum", &["4000"]),
    ("compress", &["4000"]),
    ("mandelbrot", &["20"]),
    ("nbody", &["200"]),
    ("binarytrees", &["9"]),
    ("spectralnorm", &["20", "2"]),
    ("dijkstra", &["10"]),
    ("wordcount", &["4000"]),
    ("histogram", &["4000"]),
    ("montecarlo", &["3000"]),
    ("strings", &["400"]),
];

/// Which Fig. 6 matrix a campaign submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// 25 functions × 7 languages × secure/normal, default arguments,
    /// 10 trials: the paper's 350 cells.
    Paper,
    /// The same 350 cells with quick arguments and 3 trials.
    Quick,
    /// 5 functions × 7 languages × secure, quick arguments, 3 trials:
    /// 35 cells, for `--smoke`.
    Smoke,
}

impl Matrix {
    pub fn for_gateway(scale: Scale) -> Matrix {
        match scale {
            Scale::Full => Matrix::Paper,
            Scale::Smoke => Matrix::Smoke,
        }
    }

    /// `fig6_memo` fills a fresh daemon's cache several times per run, and
    /// a memoized answer costs the same whatever the cells cost cold.
    pub fn for_memo(scale: Scale) -> Matrix {
        Matrix::for_fleet(scale)
    }

    pub fn for_fleet(scale: Scale) -> Matrix {
        match scale {
            Scale::Full => Matrix::Quick,
            Scale::Smoke => Matrix::Smoke,
        }
    }
}

/// The Fig. 6 campaign on TDX for campaign number `index` of this run.
pub fn fig6_spec(matrix: Matrix, seed: u64, index: u64) -> CampaignSpec {
    let (table, modes, trials): (&[ArgRow], Vec<VmKind>, u32) = match matrix {
        Matrix::Paper => (&PAPER_ARGS, VmKind::ALL.to_vec(), 10),
        Matrix::Quick => (&QUICK_ARGS, VmKind::ALL.to_vec(), 3),
        Matrix::Smoke => (&QUICK_ARGS[..5], vec![VmKind::Secure], 3),
    };
    CampaignSpec {
        functions: table
            .iter()
            .map(|(name, args)| CampaignFunction {
                name: (*name).to_owned(),
                args: args.iter().map(|a| (*a).to_owned()).collect(),
            })
            .collect(),
        languages: Language::ALL.to_vec(),
        platforms: vec![TeePlatform::Tdx],
        modes,
        trials,
        seed: derive(seed, TAG_CAMPAIGN, index) >> 16,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

/// Campaign number of the 35-cell campaign a daemon is warmed up with
/// before timing; no measured campaign has it.
pub const WARM_UP_CAMPAIGN: u64 = u64::MAX;

/// The light functions `/v1/run` requests rotate over: about 100 µs of
/// simulator work each, so the request path dominates.
const RUN_FUNCTIONS: [(&str, &str); 4] =
    [("fib", "13"), ("checksum", "4000"), ("factors", "360360"), ("json", "40")];
const RUN_LANGUAGES: [Language; 4] =
    [Language::Go, Language::Python, Language::Node, Language::LuaJit];

/// Cells in one rotation of the `/v1/run` stream.
pub const RUN_CELLS: usize = RUN_FUNCTIONS.len() * RUN_LANGUAGES.len();

/// The `/v1/run` request stream: request `i` of a run is a pure function of
/// `(seed, i)`.
#[derive(Debug, Clone)]
pub struct RunStream {
    seed: u64,
    order: Vec<(usize, usize)>,
    /// What each function of the rotation must print, evaluated once:
    /// `factors 360360` alone is a third of a millisecond, too much to
    /// spend in the generator per request.
    expected: Vec<String>,
}

impl RunStream {
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<(usize, usize)> = (0..RUN_FUNCTIONS.len())
            .flat_map(|f| (0..RUN_LANGUAGES.len()).map(move |l| (f, l)))
            .collect();
        let mut rng = SplitMix64::new(derive(seed, TAG_ORDER, 0));
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let expected = RUN_FUNCTIONS
            .iter()
            .map(|(name, arg)| native_output(name, arg).expect("the rotation has native twins"))
            .collect();
        RunStream { seed, order, expected }
    }

    /// The output request `i` must carry.
    pub fn expected_output(&self, i: u64) -> &str {
        &self.expected[self.order[(i % RUN_CELLS as u64) as usize].0]
    }

    /// Request `i`: the seed-shuffled rotation of the 16 cells, secure and
    /// normal alternating (and swapping each rotation, so every cell meets
    /// both kinds), with a request seed no other request shares.
    pub fn request(&self, i: u64) -> RunRequest {
        let (f, l) = self.order[(i % RUN_CELLS as u64) as usize];
        let (name, arg) = RUN_FUNCTIONS[f];
        let secure = (i + i / RUN_CELLS as u64).is_multiple_of(2);
        let target = if secure {
            VmTarget::secure(TeePlatform::Tdx)
        } else {
            VmTarget::normal(TeePlatform::Tdx)
        };
        RunRequest::new(FunctionSpec::new(name, RUN_LANGUAGES[l]).arg(arg), target)
            .seed(derive(self.seed, TAG_RUN, i) >> 16)
    }
}

/// What `function(arg)` must print, evaluated natively here rather than
/// taken from the program under test. Covers the `/v1/run` rotation.
pub fn native_output(function: &str, arg: &str) -> Option<String> {
    let n: u64 = arg.parse().ok()?;
    let out = match function {
        "fib" => {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..n {
                (a, b) = (b, a + b);
            }
            a
        }
        "factors" => (1..=n).filter(|d| n.is_multiple_of(*d)).sum(),
        "checksum" => {
            let (mut x, mut c) = (42u64, 0u64);
            for _ in 0..n {
                x = (x * 1_103_515_245 + 12_345) % 2_147_483_648;
                c = (c * 31 + x % 256) % 2_147_483_647;
            }
            c
        }
        "json" => {
            let (mut braces, mut colons, mut chars) = (0u64, 0u64, 0u64);
            for i in 0..n {
                let rec = format!(
                    "{{\"id\":{i},\"name\":\"user{}\",\"score\":{}}}",
                    i % 100,
                    i * 37 % 1000
                );
                chars += rec.len() as u64;
                braces += rec.bytes().filter(|&c| c == b'{').count() as u64;
                colons += rec.bytes().filter(|&c| c == b':').count() as u64;
            }
            braces * 1_000_000 + colons % 1_000_000 + chars % 997
        }
        _ => return None,
    };
    Some(out.to_string())
}

/// Offered rates of the open-loop ladder, req/s: about 20 %, 45 % and
/// 100 % of `run_closed`'s throughput on the reference machine when the
/// benchmark was defined, rounded to 100. Constants, never derived at run
/// time. End-to-end metrics are taken at `OPEN_RATES[0]`: at 45 % the open
/// loop doubled every drift of the sandbox (a spread of 0.28 on `p50_us`
/// against 0.15 for the closed loop); the higher rates run in the traced
/// run, where nothing is bounded.
pub const OPEN_RATES: [u32; 3] = [300, 600, 1300];

/// Latency limit on the open loop's p99, from due time.
pub const OPEN_LIMIT_US: f64 = 5_000.0;

/// Open-loop arrival schedule: due times in nanoseconds from the start of
/// the stage, exponential gaps (SplitMix64) with mean `1 / rate`, written
/// once and replayed by the generator.
pub fn arrival_schedule(seed: u64, stage: u64, rate: u32, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(derive(seed, TAG_ARRIVALS, stage));
    let mean_ns = 1e9 / f64::from(rate);
    let horizon = (seconds * 1e9) as u64;
    let mut due = Vec::with_capacity((seconds * f64::from(rate) * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_unit().ln() * mean_ns;
        if t as u64 >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = arrival_schedule(13, 1, 800, 2.0);
        assert_eq!(a, arrival_schedule(13, 1, 800, 2.0));
        assert_ne!(a, arrival_schedule(14, 1, 800, 2.0));
        assert_ne!(a, arrival_schedule(13, 2, 800, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // Mean gap within 10 % of 1/rate over ~1600 arrivals.
        let rate = a.len() as f64 / 2.0;
        assert!((rate - 800.0).abs() < 80.0, "achieved schedule rate {rate}");
    }

    #[test]
    fn run_stream_covers_every_cell_with_both_kinds_and_unique_seeds() {
        let stream = RunStream::new(13);
        let mut seen = std::collections::BTreeSet::new();
        let mut seeds = std::collections::BTreeSet::new();
        for i in 0..(2 * RUN_CELLS as u64) {
            let r = stream.request(i);
            assert_eq!(r, stream.request(i), "request {i} is deterministic");
            seen.insert((r.function.name.clone(), r.function.language, r.target.kind));
            assert!(seeds.insert(r.seed), "request seeds are unique");
            if i % RUN_CELLS as u64 != RUN_CELLS as u64 - 1 {
                assert_ne!(r.target.kind, stream.request(i + 1).target.kind, "kinds alternate");
            }
        }
        assert_eq!(seen.len(), 2 * RUN_CELLS);
        assert_ne!(
            (0..16).map(|i| RunStream::new(14).request(i)).collect::<Vec<_>>(),
            (0..16).map(|i| stream.request(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn native_outputs_match_known_values() {
        assert_eq!(native_output("fib", "13").as_deref(), Some("233"));
        assert_eq!(native_output("factors", "360360").as_deref(), Some("1572480"));
        assert_eq!(native_output("factors", "28").as_deref(), Some("56"));
        assert!(native_output("nope", "1").is_none());
    }

    #[test]
    fn fig6_matrices_have_the_documented_sizes() {
        assert_eq!(fig6_spec(Matrix::Paper, 13, 0).cell_count(), 350);
        assert_eq!(fig6_spec(Matrix::Quick, 13, 0).cell_count(), 350);
        assert_eq!(fig6_spec(Matrix::Smoke, 13, 0).cell_count(), 35);
        assert_ne!(fig6_spec(Matrix::Paper, 13, 0).seed, fig6_spec(Matrix::Paper, 13, 1).seed);
        assert_eq!(fig6_spec(Matrix::Paper, 13, 2), fig6_spec(Matrix::Paper, 13, 2));
    }
}
