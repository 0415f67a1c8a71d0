//! The solve engine: scenario resolution, request coalescing, and the
//! daemon-owned circuit cache.
//!
//! Coalescing sits *above* the LRU: concurrent identical requests share one
//! `OnceLock` whose single initializer (the leader) runs the full pipeline
//! while the followers block in `get_or_init` and share the leader's
//! [`Solution`]. The in-flight key hashes the canonical `.scn` text of the
//! *effective* scenario (after power and solver overrides), which pins
//! every layer, placement and via field, plus the fidelity tier — two
//! requests coalesce exactly when they would run byte-identical pipelines. Because followers never call into the cache,
//! `misses == 1 && hits == 0` on a fresh cache is proof that N concurrent
//! identical requests assembled exactly one circuit.

use crate::json::{obj, Json};
use crate::protocol::{FidelityTier, ScenarioSource, SolveRequest};
use hotiron_bench::common::{self, Fidelity};
use hotiron_bench::scenario::{self, ErrorKind, PlanKind, PowerSpec, Scenario, Solution};
use hotiron_thermal::stack::Fnv;
use hotiron_thermal::CircuitCache;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A solve failure with its response code: `404` unknown scenario, `422`
/// unusable scenario content, `500` solver failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// HTTP-flavored response code.
    pub code: u16,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for EngineError {}

fn unprocessable(message: impl Into<String>) -> EngineError {
    EngineError { code: 422, message: message.into() }
}

/// How a solve was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Ran the pipeline; the circuit came out of the cache.
    Hit,
    /// Ran the pipeline; the circuit was assembled.
    Miss,
    /// Joined another request's in-flight solve.
    Coalesced,
}

impl Disposition {
    /// The wire token (`"hit"` / `"miss"` / `"coalesced"`).
    pub fn token(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
        }
    }
}

/// A solve's result, shared by its leader and every follower.
type Outcome = Result<Arc<Solution>, EngineError>;

/// The daemon's solve engine. Shared across workers (`&Engine` is all the
/// hot path needs); owns the bounded circuit cache and the in-flight table.
pub struct Engine {
    cache: CircuitCache,
    inflight: Mutex<HashMap<u64, Arc<OnceLock<Outcome>>>>,
    panics: AtomicU64,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("cache", &self.cache)
            .field("inflight", &self.inflight_len())
            .finish()
    }
}

/// The in-flight key: canonical scenario text plus fidelity.
fn coalesce_key(sc: &Scenario, fidelity: Fidelity) -> u64 {
    let mut h = Fnv::new();
    h.bytes(sc.to_scn().as_bytes());
    h.bytes(fidelity.pick(b"fast".as_slice(), b"paper".as_slice()));
    h.finish()
}

impl Engine {
    /// An engine whose circuit cache holds at most `cache_capacity` circuits.
    pub fn new(cache_capacity: usize) -> Self {
        Self {
            cache: CircuitCache::new(cache_capacity),
            inflight: Mutex::new(HashMap::new()),
            panics: AtomicU64::new(0),
        }
    }

    /// The engine-owned circuit cache (for `/stats` and tests).
    pub fn cache(&self) -> &CircuitCache {
        &self.cache
    }

    /// Solves currently in flight (leaders with possible followers).
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Solves that panicked and answered 500; each counts once, however
    /// many followers shared it.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Resolves a request to the effective scenario it will run: looks up or
    /// parses the scenario, then applies the power overrides (`power_w`
    /// replaces the source, `power_scale` multiplies whatever is left) and
    /// the solver override (request `solver` wins over the scenario's own
    /// choice). The override lands before
    /// the coalesce key is computed, so requests for different solvers never
    /// share a solve.
    ///
    /// # Errors
    ///
    /// `404` for an unknown shipped name, `422` for unparsable or unusable
    /// content.
    pub fn resolve(&self, req: &SolveRequest) -> Result<(Scenario, Fidelity), EngineError> {
        let mut sc = match &req.scenario {
            ScenarioSource::Named(name) => {
                let text =
                    scenario::SHIPPED.iter().find(|(n, _)| n == name).map(|(_, t)| *t).ok_or_else(
                        || EngineError {
                            code: 404,
                            message: format!(
                                "unknown scenario `{name}` (shipped: {})",
                                scenario::SHIPPED
                                    .iter()
                                    .map(|(n, _)| *n)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        },
                    )?;
                scenario::parse(text).expect("shipped scenarios parse")
            }
            ScenarioSource::Inline(text) => {
                scenario::parse(text).map_err(|e| unprocessable(e.to_string()))?
            }
        };
        if let Some(watts) = req.power_w {
            if sc.board.is_some() {
                return Err(unprocessable(
                    "power_w cannot override a board scenario (power is per-[place]; use power_scale)",
                ));
            }
            sc.power = PowerSpec::Uniform(watts);
        }
        if let Some(scale) = req.power_scale {
            if sc.board.is_some() {
                // Boards scale every placement's power together — the
                // board-level analogue of scaling the single die's source.
                for place in &mut sc.places {
                    place.power = scale_power_spec(&place.power, place.plan, scale);
                }
            } else {
                sc.power = scale_power_spec(&sc.power, sc.plan, scale);
            }
        }
        if let Some(spec) = req.solver {
            sc.solver = spec;
        }
        let fidelity = match req.fidelity {
            FidelityTier::Fast => Fidelity::Fast,
            FidelityTier::Paper => Fidelity::Paper,
        };
        Ok((sc, fidelity))
    }

    /// Runs (or joins) the solve for `req`.
    ///
    /// # Errors
    ///
    /// [`EngineError`] with the response code; followers receive the
    /// leader's error verbatim.
    pub fn solve(&self, req: &SolveRequest) -> Result<(Arc<Solution>, Disposition), EngineError> {
        let (sc, fidelity) = self.resolve(req)?;
        let key = coalesce_key(&sc, fidelity);

        let entry = Arc::clone(
            self.inflight.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        let mut led = false;
        let outcome = entry.get_or_init(|| {
            led = true;
            // A panic inside the pipeline (e.g. an assembly assert on an
            // inf conductance) answers this request with a 500 instead of
            // killing the worker; the circuit LRU builds outside its lock,
            // so the unwind leaves no poisoned state behind.
            let outcome = match panic::catch_unwind(AssertUnwindSafe(|| {
                scenario::run_in(&sc, fidelity, &self.cache)
            })) {
                Ok(Ok(solution)) => Ok(Arc::new(solution)),
                Ok(Err(e)) => {
                    let code = if e.kind == ErrorKind::Solve { 500 } else { 422 };
                    Err(EngineError { code, message: e.to_string() })
                }
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    Err(EngineError {
                        code: 500,
                        message: format!("solver panicked: {}", panic_message(payload.as_ref())),
                    })
                }
            };
            // Unregister before the followers wake: a request arriving after
            // the removal starts a fresh solve instead of joining a finished
            // one.
            self.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&key);
            outcome
        });
        outcome.clone().map(|solution| {
            let disposition = match (led, solution.cache_hit) {
                (false, _) => Disposition::Coalesced,
                (true, true) => Disposition::Hit,
                (true, false) => Disposition::Miss,
            };
            (solution, disposition)
        })
    }
}

/// The message of a caught panic payload (`panic!` carries a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Scales a power spec by `scale`, materializing the gcc map into explicit
/// per-block watts (the spec itself has no scale knob). `plan` is whichever
/// die carries the spec — the scenario's own, or one `[place]`'s.
fn scale_power_spec(power: &PowerSpec, plan_kind: PlanKind, scale: f64) -> PowerSpec {
    match power {
        PowerSpec::Uniform(w) => PowerSpec::Uniform(w * scale),
        PowerSpec::Blocks(blocks) => {
            PowerSpec::Blocks(blocks.iter().map(|(b, w)| (b.clone(), w * scale)).collect())
        }
        PowerSpec::Gcc => {
            let (plan, power) = match plan_kind {
                PlanKind::Ev6 => common::ev6_gcc(),
                PlanKind::Athlon64 => common::athlon_gcc(),
                // `parse` rejects gcc power on other plans.
                _ => unreachable!("gcc power needs a named plan"),
            };
            PowerSpec::Blocks(
                plan.blocks()
                    .iter()
                    .zip(power.values())
                    .map(|(block, w)| (block.name().to_owned(), w * scale))
                    .collect(),
            )
        }
    }
}

/// Renders the `200` solve report. `blocks` toggles the per-block
/// temperature listing (clients polling only headline numbers skip it).
pub fn solution_response(
    sc_name: &str,
    fidelity: FidelityTier,
    solution: &Solution,
    disposition: Disposition,
    blocks: bool,
) -> Json {
    let stats = &solution.solve_stats;
    let mut members = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("code".to_owned(), Json::Num(200.0)),
        ("kind".to_owned(), Json::Str("solve".into())),
        ("scenario".to_owned(), Json::Str(sc_name.to_owned())),
        ("fidelity".to_owned(), Json::Str(fidelity.token().into())),
        ("cache".to_owned(), Json::Str(disposition.token().into())),
        ("total_power_w".to_owned(), Json::Num(solution.total_power_w)),
        ("silicon_max_c".to_owned(), Json::Num(solution.silicon_max_c)),
        ("silicon_mean_c".to_owned(), Json::Num(solution.silicon_mean_c)),
        ("global_max_c".to_owned(), Json::Num(solution.global_max_c)),
        ("global_min_c".to_owned(), Json::Num(solution.global_min_c)),
        ("energy_rel".to_owned(), Json::Num(solution.energy_rel)),
        (
            "solver".to_owned(),
            obj([
                ("method", Json::Str(stats.method.label().into())),
                ("iterations", Json::Num(stats.iterations as f64)),
                ("relative_residual", Json::Num(stats.relative_residual)),
                ("converged", Json::Bool(stats.converged)),
                ("threads", Json::Num(stats.threads as f64)),
                ("warm_start", Json::Bool(stats.warm_start)),
            ]),
        ),
    ];
    if blocks {
        members.push((
            "blocks".to_owned(),
            Json::Obj(
                solution.blocks.iter().map(|(name, t)| (name.clone(), Json::Num(*t))).collect(),
            ),
        ));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotiron_bench::scenario::SolverSpec;
    use std::sync::Barrier;
    use std::thread;

    fn named(name: &str) -> SolveRequest {
        SolveRequest {
            scenario: ScenarioSource::Named(name.into()),
            fidelity: FidelityTier::Fast,
            power_scale: None,
            power_w: None,
            deadline_ms: None,
            blocks: true,
            solver: None,
        }
    }

    #[test]
    fn unknown_scenario_is_404_and_lists_shipped_names() {
        let engine = Engine::new(8);
        let e = engine.solve(&named("nope")).unwrap_err();
        assert_eq!(e.code, 404);
        assert!(e.message.contains("paper-oil"), "{e}");
    }

    #[test]
    fn inline_parse_error_is_422_with_line() {
        let engine = Engine::new(8);
        let mut req = named("x");
        req.scenario = ScenarioSource::Inline("[scenario]\nname = x\nwat = 1\n".into());
        let e = engine.solve(&req).unwrap_err();
        assert_eq!(e.code, 422);
        assert!(e.message.contains("line 3"), "{e}");
    }

    #[test]
    fn non_finite_inline_power_is_422_and_the_engine_keeps_serving() {
        let engine = Engine::new(8);
        let mut req = named("x");
        req.scenario = ScenarioSource::Inline(
            "[scenario]\nname = nan\n[die]\nplan = uniform\nwidth = 0.01\nheight = 0.01\n\
             [grid]\nrows = 8\ncols = 8\n[stack]\nlayer = silicon silicon 5e-4\n\
             top = lumped 1 10\n[power]\nsource = uniform NaN\n"
                .into(),
        );
        let e = engine.solve(&req).unwrap_err();
        assert_eq!(e.code, 422, "{e}");
        assert!(e.message.contains("line 14") && e.message.contains("`source`"), "{e}");
        let (sol, _) = engine.solve(&named("paper-oil")).expect("engine still answers");
        assert!(sol.solve_stats.converged);
        assert_eq!(engine.inflight_len(), 0);
    }

    #[test]
    fn a_panicking_leader_answers_500_and_the_engine_keeps_serving() {
        // A 1e308 m/s oil film parses, but its conductance overflows to inf
        // and trips the assembly assert inside `run_in`.
        let paper_oil = scenario::SHIPPED.iter().find(|(n, _)| *n == "paper-oil").unwrap().1;
        let mut req = named("x");
        req.scenario =
            ScenarioSource::Inline(paper_oil.replace("mineral-oil 10 ", "mineral-oil 1e308 "));
        let engine = Engine::new(8);
        for attempt in 0..2 {
            let e = engine.solve(&req).unwrap_err();
            assert_eq!(e.code, 500, "attempt {attempt}: {e}");
            assert!(e.message.contains("panicked"), "{e}");
            assert_eq!(engine.inflight_len(), 0, "attempt {attempt} left its key registered");
        }
        let (sol, _) = engine.solve(&named("paper-oil")).expect("engine still answers");
        assert!(sol.solve_stats.converged);
        assert_eq!(engine.inflight_len(), 0);
    }

    #[test]
    fn concurrent_followers_of_a_panicking_leader_all_answer_500() {
        const N: usize = 4;
        let paper_oil = scenario::SHIPPED.iter().find(|(n, _)| *n == "paper-oil").unwrap().1;
        let mut req = named("x");
        req.scenario =
            ScenarioSource::Inline(paper_oil.replace("mineral-oil 10 ", "mineral-oil 1e308 "));
        let engine = Arc::new(Engine::new(8));
        let barrier = Arc::new(Barrier::new(N));
        let errors: Vec<EngineError> = (0..N)
            .map(|_| {
                let (engine, barrier, req) =
                    (Arc::clone(&engine), Arc::clone(&barrier), req.clone());
                thread::spawn(move || {
                    barrier.wait();
                    engine.solve(&req).unwrap_err()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no request hangs or panics"))
            .collect();
        // How many requests shared a leader depends on timing; every one of
        // them must still get the leader's 500.
        for e in &errors {
            assert_eq!(e.code, 500, "{e}");
            assert!(e.message.contains("panicked"), "{e}");
        }
        assert!((1..=N as u64).contains(&engine.panics()), "{} panics", engine.panics());
        assert_eq!(engine.inflight_len(), 0, "no key left registered");
        let (sol, _) = engine.solve(&named("paper-oil")).expect("engine still answers");
        assert!(sol.solve_stats.converged);
    }

    #[test]
    fn out_of_domain_inline_numbers_are_422_and_the_engine_keeps_serving() {
        let engine = Engine::new(8);
        let base = "[scenario]\nname = probe\n[die]\nplan = uniform\nwidth = 0.01\n\
                    height = 0.01\n[grid]\nrows = 8\ncols = 8\n[stack]\n\
                    layer = silicon silicon 5e-4\ntop = lumped 1 10\n[power]\nsource = uniform 40\n";
        for (from, to) in [
            ("width = 0.01", "width = 0"),
            ("height = 0.01", "height = -0.016"),
            ("uniform 40", "uniform -40"),
            ("uniform 40", "uniform 1e308"),
            ("source = uniform 40", "block = sched -3"),
            ("5e-4", "0"),
            ("5e-4", "5e-4 plate 0"),
            ("lumped 1 10", "lumped 0 30"),
            ("lumped 1 10", "oil mineral-oil 0 left-to-right local"),
            ("lumped 1 10", "oil mineral-oil -5 left-to-right local"),
            ("uniform 40\n", "uniform 40\n[solve]\nambient = -300\n"),
            ("uniform 40\n", "uniform 40\n[solve]\nambient = -273.15\n"),
            ("uniform 40\n", "uniform 40\n[solve]\nambient = 1e10\n"),
            ("uniform 40\n", "uniform 40\n[solve]\nambient = 1e200\n"),
            ("uniform 40\n", "uniform 40\n[solve]\nambient = 1e308\n"),
        ] {
            let mut req = named("x");
            req.scenario = ScenarioSource::Inline(base.replace(from, to));
            let e = engine.solve(&req).unwrap_err();
            assert_eq!(e.code, 422, "{to}: {e}");
            assert!(e.message.contains("scenario line"), "{to}: {e}");
        }
        // Request overrides skip the parse-time bound; the power map checks
        // them again.
        let mut huge_w = named("paper-oil");
        huge_w.power_w = Some(1e308);
        let mut huge_scale = named("paper-air");
        huge_scale.power_scale = Some(1e308);
        for req in [huge_w, huge_scale] {
            let e = engine.solve(&req).unwrap_err();
            assert_eq!(e.code, 422, "{e}");
        }
        let (sol, _) = engine.solve(&named("paper-oil")).expect("engine still answers");
        assert!(sol.solve_stats.converged);
        assert_eq!(engine.inflight_len(), 0);
    }

    #[test]
    fn power_overrides_change_the_effective_scenario() {
        let engine = Engine::new(8);
        let mut req = named("paper-oil");
        req.power_w = Some(10.0);
        req.power_scale = Some(2.0);
        let (sc, _) = engine.resolve(&req).unwrap();
        assert_eq!(sc.power, PowerSpec::Uniform(20.0), "power_w then power_scale");
        let (sol, _) = engine.solve(&req).unwrap();
        assert!((sol.total_power_w - 20.0).abs() < 1e-9);
    }

    #[test]
    fn power_scale_materializes_gcc_blocks() {
        let engine = Engine::new(8);
        let mut req = named("paper-air");
        req.power_scale = Some(0.5);
        let (sc, _) = engine.resolve(&req).unwrap();
        let PowerSpec::Blocks(blocks) = &sc.power else {
            panic!("gcc scaled into explicit blocks, got {:?}", sc.power)
        };
        let (_, gcc) = common::ev6_gcc();
        let total: f64 = blocks.iter().map(|(_, w)| w).sum();
        assert!((total - gcc.total() * 0.5).abs() < 1e-9);
    }

    #[test]
    fn identical_solves_share_cached_circuits() {
        let engine = Engine::new(8);
        let (_, d1) = engine.solve(&named("paper-air")).unwrap();
        let (_, d2) = engine.solve(&named("paper-air")).unwrap();
        assert_eq!(d1, Disposition::Miss);
        assert_eq!(d2, Disposition::Hit);
        assert_eq!(engine.cache().counters().misses, 1);
    }

    #[test]
    fn concurrent_identical_requests_build_exactly_one_circuit() {
        const N: usize = 8;
        let engine = Arc::new(Engine::new(8));
        let barrier = Arc::new(Barrier::new(N));
        let dispositions: Vec<Disposition> = (0..N)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let (sol, d) = engine.solve(&named("paper-oil")).unwrap();
                    assert!(sol.solve_stats.converged);
                    d
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let c = engine.cache().counters();
        // Followers never touch the cache, and a thread arriving after the
        // leader published hits the now-warm cache instead of assembling —
        // so one miss is exactly one circuit build, however the N threads
        // interleave.
        assert_eq!(c.misses, 1, "exactly one build for {N} requests");
        let count = |d: Disposition| dispositions.iter().filter(|x| **x == d).count();
        assert_eq!(count(Disposition::Miss), 1, "one leader");
        assert_eq!(count(Disposition::Hit) + count(Disposition::Coalesced), N - 1);
        assert_eq!(c.hits as usize, count(Disposition::Hit));
        assert_eq!(engine.inflight_len(), 0, "in-flight table drains");
    }

    #[test]
    fn requested_solver_overrides_the_scenario() {
        let engine = Engine::new(8);
        let (sol, _) = engine.solve(&named("bare-die-forced-air")).unwrap();
        assert_eq!(sol.solve_stats.method.label(), "ldlt", "the scenario's `solver = direct`");
        let mut req = named("bare-die-forced-air");
        req.solver = Some(SolverSpec::Spectral);
        let (sol, _) = engine.solve(&req).unwrap();
        assert_eq!(sol.solve_stats.method.label(), "spectral", "request wins");
        assert!(sol.solve_stats.converged);
    }

    #[test]
    fn spectral_on_an_ineligible_stack_is_422() {
        let engine = Engine::new(8);
        let mut req = named("paper-oil");
        req.solver = Some(SolverSpec::Spectral);
        let e = engine.solve(&req).unwrap_err();
        assert_eq!(e.code, 422, "{e}");
        assert!(e.message.contains("spectral solver ineligible"), "{e}");
    }

    #[test]
    fn board_scenario_solves_with_multigrid_and_caches() {
        let engine = Engine::new(8);
        let mut req = named("board-duo");
        req.solver = Some(SolverSpec::Multigrid);
        let (sol, d1) = engine.solve(&req).unwrap();
        assert_eq!(sol.solve_stats.method.label(), "mg-cg", "boards run the MG path");
        assert!(sol.solve_stats.converged);
        assert_eq!(sol.placements.len(), 2, "per-placement report rides along");
        assert_eq!(d1, Disposition::Miss);
        let (_, d2) = engine.solve(&req).unwrap();
        assert_eq!(d2, Disposition::Hit, "board circuits flow through the cache");
    }

    #[test]
    fn spectral_on_a_board_is_422_with_named_reason() {
        let engine = Engine::new(8);
        let mut req = named("board-qfn-vias");
        req.solver = Some(SolverSpec::Spectral);
        let e = engine.solve(&req).unwrap_err();
        assert_eq!(e.code, 422, "{e}");
        assert!(e.message.contains("spectral solver ineligible"), "{e}");
    }

    #[test]
    fn power_w_on_a_board_is_422_but_power_scale_applies() {
        let engine = Engine::new(8);
        let mut req = named("board-duo");
        req.power_w = Some(10.0);
        let e = engine.solve(&req).unwrap_err();
        assert_eq!(e.code, 422, "{e}");
        assert!(e.message.contains("per-[place]"), "{e}");

        let base = engine.solve(&named("board-duo")).unwrap().0;
        let mut scaled = named("board-duo");
        scaled.power_scale = Some(2.0);
        let (sol, _) = engine.solve(&scaled).unwrap();
        assert!((sol.total_power_w - 2.0 * base.total_power_w).abs() < 1e-9);
        assert!(sol.silicon_max_c > base.silicon_max_c + 1.0, "doubled power runs hotter");
    }

    #[test]
    fn zero_power_scale_answers_ambient_at_both_fidelities() {
        let engine = Engine::new(8);
        let forced =
            [SolverSpec::Direct, SolverSpec::Cg, SolverSpec::Multigrid, SolverSpec::Spectral]
                .map(|spec| SolveRequest { solver: Some(spec), ..named("bare-die-forced-air") });
        let requests: Vec<SolveRequest> =
            scenario::SHIPPED.iter().map(|(name, _)| named(name)).chain(forced).collect();
        for fidelity in [FidelityTier::Fast, FidelityTier::Paper] {
            for req in &requests {
                let req = SolveRequest { fidelity, power_scale: Some(0.0), ..req.clone() };
                let (sol, _) = engine.solve(&req).unwrap_or_else(|e| panic!("{req:?}: {e}"));
                let (sc, _) = engine.resolve(&req).unwrap();
                assert_eq!(sol.total_power_w, 0.0, "{req:?}");
                for t in [sol.silicon_max_c, sol.silicon_mean_c, sol.global_max_c] {
                    assert!((t - sc.ambient_c).abs() < 1e-6, "{req:?}: {t} C");
                }
            }
        }
        assert_eq!(engine.inflight_len(), 0);
    }

    #[test]
    fn different_requests_do_not_coalesce() {
        let engine = Engine::new(8);
        let mut scaled = named("paper-air");
        scaled.power_scale = Some(2.0);
        let (a, _) = engine.solve(&named("paper-air")).unwrap();
        let (b, _) = engine.solve(&scaled).unwrap();
        assert!(b.silicon_max_c > a.silicon_max_c + 1.0, "doubled power runs hotter");
        // Same stack, same grid: the circuit is shared even though the
        // solves are distinct.
        assert_eq!(engine.cache().counters().misses, 1);
        assert_eq!(engine.cache().counters().hits, 1);
    }
}
