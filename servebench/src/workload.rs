//! The three workloads: what each logical client sends, generated from the seed, and what the
//! sequential oracle says every answer must be.
//!
//! A workload is a query palette registered during set-up plus a source of *tenants*. A tenant
//! is one session's script — open, register, downgrade or batch, a knowledge checkpoint, close —
//! with the request text pre-rendered, so a client only splices in the session id the server
//! assigned. Every tenant opens its own session, so its answers depend on nothing but its own
//! script: the oracle replays it alone against an in-process [`Deployment`] session
//! ([`Deployment::session`] plus [`AnosySession::downgrade`], with the same registrations).

use anosy_core::{AnosySession, PolicySpec, SynthesizeInto};
use anosy_ifc::Protected;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_serve::{wire, Denial, DenialCode, Deployment, ServeConfig, ServeRequest, ServeResponse};
use anosy_suite::population::{Population, PopulationConfig, TenantAction};
use anosy_synth::{ApproxKind, DomainCodec, QueryDef};
use std::collections::HashSet;
use std::sync::Arc;

/// Side of the paper's location grid every workload serves.
pub const SIDE: i64 = 400;

/// The `--layout` argument for [`layout`].
pub const LAYOUT_ARG: &str = "x:0:400 y:0:400";

pub fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, SIDE).field("y", 0, SIDE).build()
}

/// The knowledge domain a workload's server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Interval,
    Powerset,
}

/// One protocol action of a tenant.
#[derive(Debug, Clone)]
pub enum Action {
    Open,
    Register(QueryDef),
    Downgrade(Arc<str>, Point),
    Batch(Arc<str>, Vec<Point>),
    Knowledge(Point),
    Close,
}

/// One action with its pre-rendered request text: `head`, then the session id when the request
/// names one, then `tail`.
#[derive(Debug, Clone)]
pub struct Step {
    pub action: Action,
    head: String,
    tail: String,
}

impl Step {
    /// Downgrades this step answers (a batch answers one per secret).
    pub fn decisions(&self) -> usize {
        match &self.action {
            Action::Downgrade(..) => 1,
            Action::Batch(_, secrets) => secrets.len(),
            _ => 0,
        }
    }

    /// Appends the request text for `session` to `out`.
    pub fn render(&self, session: u64, out: &mut String) {
        use std::fmt::Write;
        out.push_str(&self.head);
        if !matches!(self.action, Action::Open | Action::Register(_)) {
            write!(out, "{session}").expect("writing to a String cannot fail");
        }
        out.push_str(&self.tail);
    }
}

impl Action {
    /// The typed request for `session` (the in-process replays drive the frontend with these).
    pub fn request(
        &self,
        policy: &PolicySpec,
        members: Option<usize>,
        session: u64,
    ) -> ServeRequest {
        let session = anosy_serve::SessionId(session);
        match self {
            Action::Open => ServeRequest::OpenSession { policy: policy.clone() },
            Action::Register(query) => ServeRequest::RegisterQuery {
                query: query.clone(),
                kind: ApproxKind::Under,
                members,
            },
            Action::Downgrade(query, secret) => {
                ServeRequest::Downgrade { session, secret: secret.clone(), query: query.clone() }
            }
            Action::Batch(query, secrets) => ServeRequest::DowngradeBatch {
                session,
                secrets: secrets.clone(),
                query: query.clone(),
            },
            Action::Knowledge(secret) => {
                ServeRequest::Knowledge { session, secret: secret.clone() }
            }
            Action::Close => ServeRequest::CloseSession { session },
        }
    }
}

/// One session's script.
#[derive(Debug)]
pub struct Tenant {
    pub policy: PolicySpec,
    pub steps: Vec<Step>,
    /// The oracle's answer text per step, when it was computed ahead of the run (pooled
    /// tenants); `None` for tenants checked after the run (cold-register tenants).
    pub expected: Option<Vec<String>>,
    /// The policy's min-size bound: every knowledge checkpoint must report at least this.
    pub floor: Option<u128>,
}

impl Tenant {
    fn new(policy: PolicySpec, actions: Vec<Action>, members: Option<usize>) -> Tenant {
        let steps = actions
            .into_iter()
            .map(|action| {
                let (head, tail) = match &action {
                    Action::Open | Action::Register(_) => {
                        let request = action.request(&policy, members, 0);
                        (
                            wire::encode_request(&request)
                                .expect("workload requests are wire-safe"),
                            String::new(),
                        )
                    }
                    Action::Downgrade(query, secret) => (
                        "downgrade session=".to_string(),
                        format!(" query={query} secret={}", wire::encode_point(secret)),
                    ),
                    Action::Batch(query, secrets) => {
                        let list: Vec<String> = secrets.iter().map(wire::encode_point).collect();
                        (
                            "batch session=".to_string(),
                            format!(" query={query} secrets={}", list.join(";")),
                        )
                    }
                    Action::Knowledge(secret) => (
                        "knowledge session=".to_string(),
                        format!(" secret={}", wire::encode_point(secret)),
                    ),
                    Action::Close => ("close session=".to_string(), String::new()),
                };
                Step { action, head, tail }
            })
            .collect();
        let floor = policy.min_size_bound();
        Tenant { policy, steps, expected: None, floor }
    }

    /// The queries this tenant registers itself.
    pub fn registers(&self) -> impl Iterator<Item = &QueryDef> {
        self.steps.iter().filter_map(|s| match &s.action {
            Action::Register(q) => Some(q),
            _ => None,
        })
    }
}

/// A tenant's answers as the server gave them: `(step index, response text)`, for the
/// post-run oracle.
pub type Recorded = (Arc<Tenant>, Vec<(usize, String)>);

/// Where logical clients draw their next tenant from: a pool, handed out round-robin. Each
/// hand-out opens a fresh session, so replaying a tenant replays its answers, and a pool whose
/// size is a multiple of a round's tenants serves the same tenant sets in the same order on
/// every run.
#[derive(Default)]
pub struct Source {
    pub tenants: Vec<Arc<Tenant>>,
    next: usize,
}

impl Source {
    pub fn new(tenants: Vec<Arc<Tenant>>) -> Source {
        Source { tenants, next: 0 }
    }

    pub fn next(&mut self) -> Arc<Tenant> {
        let tenant = Arc::clone(&self.tenants[self.next % self.tenants.len()]);
        self.next += 1;
        tenant
    }
}

/// A fully generated workload.
pub struct Workload {
    pub name: &'static str,
    pub domain: Domain,
    pub members: Option<usize>,
    pub binary: bool,
    /// Logical clients in total (spread over the sockets round-robin).
    pub clients: usize,
    /// At most `nproc` sockets.
    pub sockets: usize,
    pub journal: bool,
    /// After a policy denial, skip the tenant's remaining downgrades.
    pub until_refused: bool,
    /// Queries registered during set-up.
    pub palette: Vec<QueryDef>,
    pub source: Source,
    /// Tenants per round, for a workload whose one logical client plays a fixed number of
    /// tenants a round: every round then does the same amount of work, whatever the host's
    /// speed. `None`: a round is a time window.
    pub round_tenants: Option<usize>,
}

pub const NAMES: [&str; 3] = ["hot-downgrade", "bulk-powerset", "cold-register"];

/// SplitMix64: the benchmark's own seeded generator (the inputs must be a pure function of
/// the seed).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f5e_7be1_c4a1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

fn ball(name: String, ox: i64, oy: i64, radius: i64) -> QueryDef {
    let pred = ((IntExpr::var(0) - ox).abs() + (IntExpr::var(1) - oy).abs()).le(radius);
    QueryDef::new(name, layout(), pred).expect("a ball over the grid fits the layout")
}

/// Builds the named workload for `seed` on a host with `nproc` hardware threads.
pub fn build(name: &str, seed: u64, nproc: usize) -> Option<Workload> {
    Some(match name {
        "hot-downgrade" => hot_downgrade(seed, nproc),
        "bulk-powerset" => bulk_powerset(seed),
        "cold-register" => cold_register(seed),
        _ => return None,
    })
}

/// Tenants drawn from the `anosy-suite` population generator (Zipf palette, mixed policies,
/// adversarial probe ladders at the `paper()` permille), each sending single downgrades and a
/// knowledge checkpoint. The palette is registered during set-up.
fn hot_downgrade(seed: u64, nproc: usize) -> Workload {
    const POOL: usize = 4096;
    let population = Population::generate(&PopulationConfig::paper(seed).with_tenants(POOL));
    let tenants = population
        .tenants
        .iter()
        .map(|t| {
            let mut actions = vec![Action::Open];
            for action in t.bursts.iter().flatten() {
                match action {
                    TenantAction::Register { .. } => {}
                    TenantAction::Downgrade { query, secret } => actions.push(Action::Downgrade(
                        population.queries[*query].name().into(),
                        secret.clone(),
                    )),
                    TenantAction::Knowledge { secret } => {
                        actions.push(Action::Knowledge(secret.clone()))
                    }
                }
            }
            if !matches!(actions.last(), Some(Action::Knowledge(_))) {
                actions.push(Action::Knowledge(t.secret.clone()));
            }
            actions.push(Action::Close);
            Tenant::new(t.policy.clone(), actions, None)
        })
        .collect();
    let palette = population.queries.clone();
    let tenants = with_expected::<anosy_domains::IntervalDomain>(&palette, tenants, None);
    Workload {
        name: "hot-downgrade",
        domain: Domain::Interval,
        members: None,
        binary: true,
        clients: 16,
        sockets: nproc.clamp(1, 16),
        journal: false,
        until_refused: false,
        palette,
        source: Source::new(tenants),
        round_tenants: None,
    }
}

/// One client on one socket, refining 1024 seeded secrets through `batch` frames against every
/// warm query until some are refused. The eight balls are fixed and the pool holds each query
/// rotation under each policy once: how much the balls overlap, and in which orders they are
/// asked, is what sets how soon secrets are refused, so seeds move only the secrets. A round
/// plays the whole pool once.
fn bulk_powerset(seed: u64) -> Workload {
    const BALLS: [(i64, i64, i64); 8] = [
        (200, 200, 140),
        (120, 120, 90),
        (280, 120, 90),
        (120, 280, 90),
        (280, 280, 90),
        (200, 110, 70),
        (200, 290, 70),
        (110, 200, 60),
    ];
    const POLICIES: [u128; 3] = [500, 2_000, 5_000];
    const POOL: usize = BALLS.len() * POLICIES.len();
    const SECRETS: usize = 1024;
    let mut rng = Rng::new(seed);
    let palette: Vec<QueryDef> = BALLS
        .iter()
        .enumerate()
        .map(|(i, &(x, y, r))| ball(format!("bulk_{i}"), x, y, r))
        .collect();
    let tenants = (0..POOL)
        .map(|index| {
            let secrets: Vec<Point> = (0..SECRETS)
                .map(|_| Point::new(vec![rng.range(0, SIDE), rng.range(0, SIDE)]))
                .collect();
            let mut actions = vec![Action::Open];
            for k in 0..palette.len() {
                let q = (index + k) % palette.len();
                actions.push(Action::Batch(palette[q].name().into(), secrets.clone()));
            }
            actions.push(Action::Knowledge(secrets[0].clone()));
            actions.push(Action::Close);
            let policy = POLICIES[index / palette.len() % POLICIES.len()];
            Tenant::new(PolicySpec::MinSize(policy), actions, Some(3))
        })
        .collect();
    let tenants = with_expected::<anosy_domains::PowersetDomain>(&palette, tenants, Some(3));
    Workload {
        name: "bulk-powerset",
        domain: Domain::Powerset,
        members: Some(3),
        binary: true,
        clients: 1,
        sockets: 1,
        journal: false,
        until_refused: false,
        palette,
        source: Source::new(tenants),
        round_tenants: Some(POOL),
    }
}

/// Tenants per cold-register round. Every registration grows the server's registry, and every
/// later session open replays the whole registry, so a round is a fixed number of tenants on a
/// fresh server rather than a time window: every round does the same amount of work.
pub const COLD_ROUND_TENANTS: usize = 100;

/// Distinct tenant sets the cold-register rounds cycle through. Which ten or so of a round's
/// downgrades are slowest, and so its tail, depends on the tenants drawn; cycling through
/// several sets averages that over more tenants than one round holds, while the post-run
/// oracle still synthesizes each query once.
const COLD_ROUND_SETS: usize = 8;

/// Every tenant registers three fresh queries (balls of shrinking radius around its own
/// secret, so the ladder reaches a refusal), downgrades against each until refused, checks
/// its knowledge and closes. One logical client on one socket: the server handles one request
/// at a time on its one CPU, so a second client in flight adds only waiting, and a downgrade's
/// median then flips from run to run between "served at once" and "queued behind a
/// registration".
fn cold_register(seed: u64) -> Workload {
    let mut gen = ColdGen::new(seed);
    Workload {
        name: "cold-register",
        domain: Domain::Powerset,
        members: Some(3),
        binary: false,
        clients: 1,
        sockets: 1,
        journal: true,
        until_refused: true,
        palette: Vec::new(),
        source: Source::new(
            (0..COLD_ROUND_SETS * COLD_ROUND_TENANTS).map(|_| Arc::new(gen.tenant())).collect(),
        ),
        round_tenants: Some(COLD_ROUND_TENANTS),
    }
}

/// The cold-register tenant generator: a pure function of the seed and the tenant index, with
/// every predicate distinct from every earlier one.
pub struct ColdGen {
    rng: Rng,
    next: usize,
    used: HashSet<(i64, i64, i64)>,
}

impl ColdGen {
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            rng: Rng::new(seed.wrapping_mul(3).wrapping_add(1)),
            next: 0,
            used: HashSet::new(),
        }
    }

    pub fn tenant(&mut self) -> Tenant {
        let index = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        let (x, y) = (rng.range(0, SIDE), rng.range(0, SIDE));
        let policy = match rng.range(0, 2) {
            0 => PolicySpec::MinSize(500),
            1 => PolicySpec::MinSize(2_000),
            _ => PolicySpec::All(vec![
                PolicySpec::MinSize(1_000),
                PolicySpec::MinEntropyMillibits(9_000),
            ]),
        };
        let mut actions = vec![Action::Open];
        let mut names = Vec::new();
        for (k, base) in [120, 60, 30].into_iter().enumerate() {
            let mut radius = base + rng.range(0, 9);
            let ox = (x + rng.range(-radius / 2, radius / 2)).clamp(0, SIDE);
            let oy = (y + rng.range(-radius / 2, radius / 2)).clamp(0, SIDE);
            while !self.used.insert((ox, oy, radius)) {
                radius += 1;
            }
            let query = ball(format!("cr{index}_{k}"), ox, oy, radius);
            names.push(Arc::<str>::from(query.name()));
            actions.push(Action::Register(query));
        }
        let secret = Point::new(vec![x, y]);
        for name in names {
            actions.push(Action::Downgrade(name, secret.clone()));
        }
        actions.push(Action::Knowledge(secret));
        actions.push(Action::Close);
        Tenant::new(policy, actions, Some(3))
    }
}

/// The oracle deployment: the server's synthesis configuration, one worker (it only ever
/// replays sequentially).
pub fn oracle_deployment<D: anosy_domains::AbstractDomain>() -> Deployment<D> {
    Deployment::new(layout(), ServeConfig::new().with_workers(1))
}

/// The oracle's answer text for the steps `taken` of `tenant` (indices into its steps, in
/// order): a fresh session of `deployment` with the palette and the tenant's own queries
/// registered, replayed one request at a time. Open and close steps answer with their
/// prefix only (the session id is the server's to assign).
pub fn oracle<D>(
    deployment: &Deployment<D>,
    palette: &[QueryDef],
    tenant: &Tenant,
    members: Option<usize>,
    taken: impl Iterator<Item = usize>,
) -> Vec<String>
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
{
    let mut session: AnosySession<D> = deployment.session(tenant.policy.clone());
    for query in palette.iter().chain(tenant.registers()) {
        deployment
            .register_query(query, ApproxKind::Under, members)
            .expect("oracle synthesis succeeds");
        session.register_cached(query, ApproxKind::Under, members).expect("registered just above");
    }
    taken
        .map(|index| {
            let response = match &tenant.steps[index].action {
                Action::Open => return "ok session ".to_string(),
                Action::Close => return "ok closed ".to_string(),
                Action::Register(query) => {
                    ServeResponse::QueryRegistered { name: query.name().to_string() }
                }
                Action::Downgrade(query, secret) => ServeResponse::Answer(
                    session.downgrade(&Protected::new(secret.clone()), query).map_err(Denial::from),
                ),
                Action::Batch(query, secrets) => ServeResponse::Answers(
                    secrets
                        .iter()
                        .map(|s| {
                            session
                                .downgrade(&Protected::new(s.clone()), query)
                                .map_err(|e| DenialCode::of(&e))
                        })
                        .collect(),
                ),
                Action::Knowledge(secret) => {
                    let knowledge = session.knowledge_of(secret);
                    ServeResponse::Knowledge {
                        size: knowledge.size(),
                        encoded: knowledge.domain().encode(),
                    }
                }
            };
            wire::encode_response(&response)
        })
        .collect()
}

/// Attaches the oracle's answers to every step of every pooled tenant.
fn with_expected<D>(
    palette: &[QueryDef],
    tenants: Vec<Tenant>,
    members: Option<usize>,
) -> Vec<Arc<Tenant>>
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
{
    let deployment = oracle_deployment::<D>();
    tenants
        .into_iter()
        .map(|mut tenant| {
            let expected = oracle(&deployment, palette, &tenant, members, 0..tenant.steps.len());
            tenant.expected = Some(expected);
            Arc::new(tenant)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_cold_tenants_with_distinct_predicates() {
        let render = |seed| {
            let mut gen = ColdGen::new(seed);
            (0..50).map(|_| format!("{:?}", gen.tenant().steps)).collect::<Vec<_>>()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
        let mut gen = ColdGen::new(3);
        let preds: HashSet<String> = (0..200)
            .flat_map(|_| {
                gen.tenant().registers().map(|q| q.pred().to_string()).collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(preds.len(), 600, "every registration must miss the synthesis cache");
    }

    #[test]
    fn steps_render_the_wire_grammar() {
        let tenant = Tenant::new(
            PolicySpec::MinSize(100),
            vec![
                Action::Open,
                Action::Downgrade("q".into(), Point::new(vec![3, 4])),
                Action::Close,
            ],
            None,
        );
        let lines: Vec<String> = tenant
            .steps
            .iter()
            .map(|s| {
                let mut line = String::new();
                s.render(7, &mut line);
                line
            })
            .collect();
        assert_eq!(
            lines,
            ["open min-size:100", "downgrade session=7 query=q secret=3,4", "close session=7"]
        );
        for (step, line) in tenant.steps.iter().zip(&lines) {
            let parsed = wire::parse_request(line, &layout()).expect("rendered lines parse");
            assert_eq!(parsed, step.action.request(&tenant.policy, None, 7));
        }
    }
}
