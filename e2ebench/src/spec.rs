//! Workload inputs generated from the workload seed: serve specs and the
//! `serve_mix` request plan.

/// How big a workload runs: the documented benchmark size, or the tiny
/// size the self-test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One `POST /v1/runs` spec, written with every key explicit so it
/// parses to exactly the scenario it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecParams {
    pub seed: u64,
    pub robots: usize,
    pub equipped: usize,
    pub duration_s: u64,
    pub period_s: u64,
    pub coordination: bool,
    pub counters: bool,
}

impl SpecParams {
    pub fn to_json(self) -> String {
        format!(
            "{{\"seed\": {}, \"robots\": {}, \"equipped\": {}, \"duration_s\": {}, \
             \"period_s\": {}, \"coordination\": {}, \"mode\": \"cocoa\", \
             \"estimator\": \"bayes\", \"telemetry\": \"{}\"}}",
            self.seed,
            self.robots,
            self.equipped,
            self.duration_s,
            self.period_s,
            self.coordination,
            if self.counters { "counters" } else { "off" }
        )
    }

    /// Simulated robot-seconds this spec asks for.
    pub fn robot_seconds(self) -> f64 {
        (self.robots as u64 * self.duration_s) as f64
    }
}

/// Masks a seed to the 53 bits a JSON number carries exactly, so a
/// scenario seed survives the serve spec parser. Seeds below 2^53 are
/// unchanged.
pub fn spec_seed(seed: u64) -> u64 {
    seed & ((1 << 53) - 1)
}

/// SplitMix64: a tiny seeded generator for plan decisions, kept apart
/// from the program's own RNG streams.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request in the `serve_mix` stream is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A new scenario family: a cold miss that builds warm artifacts
    /// and is persisted as a CSNP job file.
    Cold,
    /// A known family with a new `period_s`: a warm fork.
    Warm,
    /// An exact repeat of a completed request: a results-cache hit.
    Hit,
    /// Both clients send the same new spec in one round: one warm-fork
    /// leader, one single-flight join.
    Join,
    /// A completed untraced spec re-sent with `"telemetry": "counters"`:
    /// a cold miss, because the warm tier serves untraced runs only.
    Counters,
}

#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into [`Plan::specs`].
    pub key: usize,
    pub role: Role,
}

/// A lockstep request stream for two closed-loop clients: in round `r`
/// client `c` sends `rounds[r][c]`, and a round starts only when both
/// replies of the previous one are in. Which requests overlap is thus
/// fixed by the seed, and so is every cache-tier count.
pub struct Plan {
    pub specs: Vec<SpecParams>,
    pub rounds: Vec<[Request; 2]>,
    /// Cold starts the server must report (`Cold` + `Counters`).
    pub cold: u64,
    /// Warm forks (`Warm` + one per `Join` round).
    pub warm: u64,
    pub hits: u64,
    pub joins: u64,
}

impl Plan {
    pub fn requests(&self) -> usize {
        self.rounds.len() * 2
    }
}

struct Mix {
    robots: usize,
    duration_s: u64,
    /// Beacon periods of every family: its cold request takes one, warm
    /// and join requests the others.
    periods: &'static [u64],
    /// Rounds by kind. In an exec round both clients send specs that
    /// execute, in a hit round both repeat completed specs, in a join
    /// round both send one new spec. Keeping the kinds apart makes a
    /// pass's wall time independent of how the seed pairs requests.
    exec_rounds: usize,
    hit_rounds: usize,
    join_rounds: usize,
    /// Requests of the exec rounds, in [`EXECUTED`] order.
    executed: [usize; 3],
}

/// The roles of the exec rounds, in [`Mix::executed`] order.
const EXECUTED: [Role; 3] = [Role::Cold, Role::Warm, Role::Counters];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exec,
    Hit,
    Join,
}

fn mix(size: Size) -> Mix {
    match size {
        // 6 families x 2 periods = 12 untraced specs: 6 cold, 4 warm and
        // 2 join leaders. One family's `mean_error_m` spreads 20-30%
        // across seeds; the mean over six independent families is what
        // keeps the metric steady.
        Size::Full => Mix {
            robots: 50,
            duration_s: 120,
            periods: &[20, 40],
            exec_rounds: 6,
            hit_rounds: 4,
            join_rounds: 2,
            executed: [6, 4, 2],
        },
        Size::Tiny => Mix {
            robots: 8,
            duration_s: 120,
            periods: &[20, 40, 60],
            exec_rounds: 3,
            hit_rounds: 1,
            join_rounds: 1,
            executed: [2, 3, 1],
        },
    }
}

struct Family {
    seed: u64,
    unused_periods: Vec<u64>,
}

/// Plan generation state. Every choice depends only on requests of
/// earlier rounds, which the lockstep clients have completed.
struct Planner {
    m: Mix,
    seed: u64,
    rng: SplitMix,
    specs: Vec<SpecParams>,
    families: Vec<Family>,
    /// Families whose cold request completed in an earlier round.
    built: usize,
    completed: Vec<usize>,
    /// Completed untraced specs not yet re-sent at `counters` level.
    untwinned: Vec<usize>,
}

impl Planner {
    fn intern(&mut self, p: SpecParams) -> usize {
        match self.specs.iter().position(|q| *q == p) {
            Some(k) => k,
            None => {
                self.specs.push(p);
                self.specs.len() - 1
            }
        }
    }

    fn spec(&self, family: usize, period_s: u64) -> SpecParams {
        SpecParams {
            seed: self.families[family].seed,
            robots: self.m.robots,
            equipped: self.m.robots / 2,
            duration_s: self.m.duration_s,
            period_s,
            coordination: true,
            counters: false,
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.rng.below(from.len())])
    }

    /// A new period of an already-built family, if one is left.
    fn fork(&mut self) -> Option<usize> {
        let open: Vec<usize> = (0..self.built)
            .filter(|&f| !self.families[f].unused_periods.is_empty())
            .collect();
        let f = self.pick(&open)?;
        let unused = &mut self.families[f].unused_periods;
        let period = unused.remove(self.rng.below(unused.len()));
        Some(self.intern(self.spec(f, period)))
    }

    fn request(&mut self, role: Role) -> Option<usize> {
        match role {
            Role::Cold => {
                let seed = spec_seed(
                    self.seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add(self.families.len() as u64 + 1),
                );
                let mut unused_periods = self.m.periods.to_vec();
                let period = unused_periods.remove(self.rng.below(unused_periods.len()));
                self.families.push(Family {
                    seed,
                    unused_periods,
                });
                Some(self.intern(self.spec(self.families.len() - 1, period)))
            }
            Role::Warm | Role::Join => self.fork(),
            Role::Counters => {
                let twin = self.pick(&self.untwinned.clone())?;
                self.untwinned.retain(|&k| k != twin);
                Some(self.intern(SpecParams {
                    counters: true,
                    ..self.specs[twin]
                }))
            }
            Role::Hit => self.pick(&self.completed.clone()),
        }
    }

    /// One attempt at a plan; `None` when the random choices paint
    /// themselves into a corner (no feasible request left for a slot).
    fn build(mut self) -> Option<Plan> {
        // Round 0 executes: every other kind needs a completed request.
        let mut kinds = vec![Kind::Exec; self.m.exec_rounds - 1];
        kinds.extend(std::iter::repeat_n(Kind::Hit, self.m.hit_rounds));
        kinds.extend(std::iter::repeat_n(Kind::Join, self.m.join_rounds));
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.below(i + 1));
        }
        kinds.insert(0, Kind::Exec);
        let mut remaining = self.m.executed;
        let mut rounds = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let round = match kind {
                Kind::Join => {
                    let key = self.request(Role::Join)?;
                    [Request {
                        key,
                        role: Role::Join,
                    }; 2]
                }
                Kind::Hit => {
                    [self.request(Role::Hit)?, self.request(Role::Hit)?].map(|key| Request {
                        key,
                        role: Role::Hit,
                    })
                }
                Kind::Exec => {
                    let mut roles = [Role::Cold; 2];
                    for role in &mut roles {
                        let total: usize = remaining.iter().sum();
                        let mut at = self.rng.below(total.max(1));
                        let i = (0..3).find(|&i| {
                            let pick = at < remaining[i];
                            at = at.saturating_sub(remaining[i]);
                            pick
                        })?;
                        remaining[i] -= 1;
                        *role = EXECUTED[i];
                    }
                    [
                        Request {
                            key: self.request(roles[0])?,
                            role: roles[0],
                        },
                        Request {
                            key: self.request(roles[1])?,
                            role: roles[1],
                        },
                    ]
                }
            };
            rounds.push(round);
            self.built = self.families.len();
            for q in &round {
                if !self.completed.contains(&q.key) {
                    self.completed.push(q.key);
                    if !self.specs[q.key].counters {
                        self.untwinned.push(q.key);
                    }
                }
            }
        }
        let count = |role: Role| {
            rounds
                .iter()
                .flatten()
                .filter(|q: &&Request| q.role == role)
                .count() as u64
        };
        let join_rounds = count(Role::Join) / 2;
        Some(Plan {
            cold: count(Role::Cold) + count(Role::Counters),
            warm: count(Role::Warm) + join_rounds,
            hits: count(Role::Hit),
            joins: join_rounds,
            specs: self.specs,
            rounds,
        })
    }
}

/// Builds the `serve_mix` plan for `seed`.
///
/// Full size: 12 rounds, 24 requests over 6 scenario families of 50
/// robots — 6 cold, 4 warm, 2 counters, 8 hits and 2 join rounds (2 warm
/// leaders + 2 joins). Hits are 8/24 (33%), well away from the median.
pub fn serve_plan(seed: u64, size: Size) -> Plan {
    let m = mix(size);
    assert_eq!(
        m.executed.iter().sum::<usize>(),
        2 * m.exec_rounds,
        "executed requests must fill the exec rounds"
    );
    let mut rng = SplitMix::new(seed ^ 0x5e7e_5e7e_5e7e_5e7e);
    loop {
        let attempt = Planner {
            m: mix(size),
            seed,
            rng: SplitMix::new(rng.next_u64()),
            specs: Vec::new(),
            families: Vec::new(),
            built: 0,
            completed: Vec::new(),
            untwinned: Vec::new(),
        };
        if let Some(plan) = attempt.build() {
            return plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_has_the_stated_mix() {
        let a = serve_plan(42, Size::Full);
        let b = serve_plan(42, Size::Full);
        let keys = |p: &Plan| -> Vec<usize> { p.rounds.iter().flatten().map(|q| q.key).collect() };
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(a.requests(), 24);
        assert_eq!((a.cold, a.warm, a.hits, a.joins), (8, 6, 8, 2));
        // Every family runs every period untraced exactly once.
        assert_eq!(a.specs.iter().filter(|s| !s.counters).count(), 6 * 2);
        assert_ne!(keys(&a), keys(&serve_plan(43, Size::Full)));
    }

    #[test]
    fn every_request_depends_only_on_earlier_rounds() {
        for seed in 0..200 {
            let plan = serve_plan(seed, Size::Full);
            let mut seen: Vec<usize> = Vec::new();
            let mut families: Vec<u64> = Vec::new();
            for round in &plan.rounds {
                let hits = round.iter().filter(|q| q.role == Role::Hit).count();
                assert!(hits != 1, "a hit paired with an executing request");
                for q in round {
                    let s = plan.specs[q.key];
                    match q.role {
                        Role::Hit => assert!(seen.contains(&q.key), "hit before completion"),
                        Role::Warm | Role::Join => {
                            assert!(families.contains(&s.seed), "fork of an unbuilt family");
                            assert!(!seen.contains(&q.key) && !s.counters);
                        }
                        Role::Counters => {
                            let twin = SpecParams {
                                counters: false,
                                ..s
                            };
                            assert!(plan
                                .specs
                                .iter()
                                .position(|p| *p == twin)
                                .is_some_and(|k| seen.contains(&k)));
                        }
                        Role::Cold => assert!(!families.contains(&s.seed)),
                    }
                }
                for q in round {
                    seen.push(q.key);
                    families.push(plan.specs[q.key].seed);
                }
            }
        }
    }
}
