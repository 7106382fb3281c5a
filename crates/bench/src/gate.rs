//! Benchmark gates: one rule evaluator over [`Value`] records plus one
//! `const` rule table per experiment.
//!
//! Every experiment emits a record (`record()` on its report) and
//! commits one as `BENCH_<mode>.json`. A [`Mode`] names the artifact's
//! schema tag, how to re-run the experiment at smoke size, and the
//! rules that hold of its records. A [`Rule`] selects rows — the record
//! itself (`""`), the elements of an array member (`"rows"`), or of an
//! array inside each of those (`"rows/sssp"`) — keeps the ones its
//! `when` conditions accept, and applies one [`Check`]:
//!
//! * `Keys(col, names)` — each name is some row's `col` (per parent),
//! * `Any` — at least one row is selected,
//! * `Positive(cols)` — finite and `> 0`, so neither `null` nor absent,
//! * `Between(col, lo, hi)` — `lo ≤ col ≤ hi`,
//! * `True(col)` / `Zero(col)` — `col == true` / `col == 0`,
//! * `Rel(a, op, k, b)` — `a ≥ k·b`, `a ≤ k·b` or `a < k·b`,
//! * `Regress(key, cols)` — against the committed row with the same
//!   `key`, after scaling by the two records' `ref_qps` machine-speed
//!   probes: `current · (baseline_ref / current_ref) ≥ baseline · (1 −
//!   TOLERANCE)`.
//!
//! Lists (`names`, `cols`) are space-separated words. Every comparison
//! is written so that a NaN, `null` or absent operand fails it. A
//! rule's [`Scope`] says whether it holds of the committed artifact, of
//! a live smoke run, or of both; [`check`] applies the same table to
//! either, and that is all the CI gate (`throughput_gate --mode <m>`)
//! does.

use crate::config::HarnessConfig;
use crate::json::Value;
use Check::*;
use Op::*;
use Scope::*;

/// Allowed regression of a live smoke against the committed baseline
/// (fraction, after reference-probe normalisation), and the slack a
/// smoke gets on timing ratios the committed artifact must meet exactly.
pub const TOLERANCE: f64 = 0.15;
/// The methods a report must cover.
pub const REQUIRED_METHODS: &str = "DIJ FULL LDM HYP";
/// The methods a scale row must cover (FULL is O(|V|²): excluded).
pub const SCALE_METHODS: &str = "DIJ LDM HYP";
/// The SSSP families a scale row must cover.
pub const SCALE_FAMILIES: &str = "road highway scale_free";
/// Node count the committed scale and store baselines must reach.
pub const MIN_NODES: f64 = 1e6;
/// Required bucket-over-heap SSSP speedup on the ≥1M road network.
pub const SCALE_ROAD_SPEEDUP: f64 = 2.0;
/// Required rebuild-over-lazy-load speedup at ≥1M nodes. Modest: the
/// row's method is DIJ, the cheapest rebuild (one tree, one signature).
pub const STORE_LOAD_SPEEDUP: f64 = 1.25;
/// Required concurrent-over-sequential speedup on ≥ [`SERVICE_MIN_CORES`].
pub const SERVICE_SPEEDUP: f64 = 2.0;
/// Below this the pool has nothing to parallelise onto and the report
/// just records the host it ran on.
pub const SERVICE_MIN_CORES: f64 = 4.0;
/// Most the k-NN completeness certificate may cost to verify, as a
/// multiple of the plain pooled batch over the same pairs.
pub const QUERIES_KNN_OVERHEAD: f64 = 5.0;
/// Most RSA signatures one edge re-weight may cost: the network root
/// plus one auxiliary root. More means a repair re-signs per entry.
pub const CHURN_MAX_SIGNS_PER_UPDATE: f64 = 2.0;

/// Which records a rule holds of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The committed `BENCH_*.json` only.
    Committed,
    /// A live smoke run only.
    Smoke,
    /// Both.
    Both,
}

/// A row condition: a rule applies to the rows all its conditions accept.
#[derive(Debug, Clone, Copy)]
pub enum Cond {
    /// `column ≥ bound`.
    AtLeast(&'static str, f64),
    /// `column` is one of the words.
    OneOf(&'static str, &'static str),
}

/// The comparison of a [`Check::Rel`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Ge,
    Le,
    Lt,
}

/// What a rule asserts of the rows it selects (see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum Check {
    Keys(&'static str, &'static str),
    Any,
    Positive(&'static str),
    Between(&'static str, f64, f64),
    True(&'static str),
    Zero(&'static str),
    Rel(&'static str, Op, f64, &'static str),
    Regress(&'static str, &'static str),
}

/// One line of a rule table.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub scope: Scope,
    /// `""`, `"member"` or `"member/member"`: where the rows are.
    pub path: &'static str,
    pub when: &'static [Cond],
    pub check: Check,
}

const fn rule(scope: Scope, path: &'static str, when: &'static [Cond], check: Check) -> Rule {
    Rule {
        scope,
        path,
        when,
        check,
    }
}

const ALL: &[Cond] = &[];
const BIG: &[Cond] = &[Cond::AtLeast("nodes", MIN_NODES)];
const ROAD: &[Cond] = &[Cond::OneOf("family", "road")];
const BIG_ROAD: &[Cond] = &[BIG[0], ROAD[0]];
const FULL_HYP: &[Cond] = &[Cond::OneOf("method", "FULL HYP")];
const MANY_CORES: &[Cond] = &[Cond::AtLeast("cores", SERVICE_MIN_CORES)];

// The tables. Checks too long for one table line are named above it.

const QPS: &str = "prove_qps verify_qps batch_prove_qps batch_verify_qps stream_verify_qps";
const AMORTIZED: Check = Rel("batch_verify_qps", Ge, 1.0, "verify_qps");

/// Every method proves, verifies, batches and streams; FULL and HYP
/// batch-verify no slower than one by one (asserted of the committed
/// artifact — on a live run it would be timing noise); no column of a
/// live run regresses.
const THROUGHPUT: &[Rule] = &[
    rule(Both, "", ALL, Positive("ref_qps")),
    rule(Both, "methods", ALL, Keys("method", REQUIRED_METHODS)),
    rule(Both, "methods", ALL, Positive(QPS)),
    rule(Committed, "methods", FULL_HYP, AMORTIZED),
    rule(Smoke, "methods", ALL, Regress("method", QPS)),
];

const BUCKET_WINS: Check = Rel("heap_ms", Ge, SCALE_ROAD_SPEEDUP, "bucket_ms");
const BUCKET_KEEPS_UP: Check = Rel("bucket_ms", Le, 1.0 + TOLERANCE, "heap_ms");

/// A ≥1M-node row; every family and method measured in every row; the
/// bucket queue ≥ 2× the heap on the big road network, and not behind
/// it beyond the tolerance at smoke size (absolute rates of a
/// reduced-size smoke are not comparable to the committed rows).
const SCALE: &[Rule] = &[
    rule(Committed, "rows", BIG, Any),
    rule(Smoke, "rows", ALL, Any),
    rule(Both, "rows/sssp", ALL, Keys("family", SCALE_FAMILIES)),
    rule(Both, "rows/sssp", ALL, Positive("heap_ms bucket_ms")),
    rule(Both, "rows/methods", ALL, Keys("method", SCALE_METHODS)),
    rule(Both, "rows/methods", ALL, Positive("prove_qps verify_qps")),
    rule(Committed, "rows/sssp", BIG_ROAD, BUCKET_WINS),
    rule(Smoke, "rows/sssp", ROAD, BUCKET_KEEPS_UP),
];

const STORE_MEASURED: &str =
    "build_sign_s save_s load_mem_s load_file_s snapshot_bytes sign_ops_build";
const LOAD_WINS: Check = Rel("build_sign_s", Ge, STORE_LOAD_SPEEDUP, "load_file_s");
const LOAD_KEEPS_UP: Check = Rel("load_file_s", Le, 1.0 + TOLERANCE, "build_sign_s");

/// A ≥1M-node row; the round trip works; publishing signs, loading
/// never does; the lazy load beats rebuild-and-resign by 1.25× at ≥1M
/// and is not behind it beyond the tolerance at smoke size.
const STORE: &[Rule] = &[
    rule(Committed, "rows", BIG, Any),
    rule(Smoke, "rows", ALL, Any),
    rule(Both, "rows", ALL, Positive(STORE_MEASURED)),
    rule(Both, "rows", ALL, Zero("sign_ops_load")),
    rule(Committed, "rows", BIG, LOAD_WINS),
    rule(Smoke, "rows", ALL, LOAD_KEEPS_UP),
];

const SERVICE_MEASURED: &str = "ref_qps single_qps service_qps cores executed";
const TRAFFIC: &str = "sessions queries service_qps";
const SPEEDUP: Check = speedup(SERVICE_SPEEDUP);
const SMOKE_SPEEDUP: Check = speedup(SERVICE_SPEEDUP * (1.0 - TOLERANCE));
const fn speedup(bar: f64) -> Check {
    Rel("service_qps", Ge, bar, "single_qps")
}

/// All four methods carry traffic through the pool; concurrent answers
/// are bit-identical to sequential ones; ≥ 2× speedup where the host
/// has the cores for it (the smoke gets the tolerance). `single_qps`
/// is held to the baseline everywhere, the concurrent `service_qps`
/// only where its wall clock is not scheduler-contention noise.
const SERVICE: &[Rule] = &[
    rule(Both, "", ALL, Positive(SERVICE_MEASURED)),
    rule(Both, "", ALL, True("bit_identical")),
    rule(Both, "methods", ALL, Keys("method", REQUIRED_METHODS)),
    rule(Both, "methods", ALL, Positive(TRAFFIC)),
    rule(Committed, "", MANY_CORES, SPEEDUP),
    rule(Smoke, "", MANY_CORES, SMOKE_SPEEDUP),
    rule(Smoke, "", ALL, Regress("", "single_qps")),
    rule(Smoke, "", MANY_CORES, Regress("", "service_qps")),
];

const QUERIES_MEASURED: &str = "range_verify_qps knn_verify_qps plain_verify_qps \
     matrix_verify_qps range_cert_bytes knn_cert_bytes matrix_cert_bytes";
const REAL_DISC: Check = Between("range_members", 2.0, f64::INFINITY);
const KNN_COST: Check = knn_cost(QUERIES_KNN_OVERHEAD);
const SMOKE_KNN_COST: Check = knn_cost(QUERIES_KNN_OVERHEAD * (1.0 + TOLERANCE));
const fn knn_cost(bar: f64) -> Check {
    Rel("plain_verify_qps", Le, bar, "knn_verify_qps")
}
const POOLING_WINS: Check = Rel("matrix_cert_bytes", Lt, 1.0, "matrix_separate_bytes");

/// All four methods answer range / k-NN / matrix with non-empty
/// certificates; the range disc is non-trivial; the completeness
/// certificate costs ≤ 5× the plain batch (a timing ratio: the smoke
/// gets the tolerance); the pooled matrix is smaller than per-pair
/// answers (byte counts: no tolerance).
const QUERIES: &[Rule] = &[
    rule(Both, "rows", ALL, Keys("method", REQUIRED_METHODS)),
    rule(Both, "rows", ALL, Positive(QUERIES_MEASURED)),
    rule(Both, "rows", ALL, REAL_DISC),
    rule(Committed, "rows", ALL, KNN_COST),
    rule(Smoke, "rows", ALL, SMOKE_KNN_COST),
    rule(Both, "rows", ALL, POOLING_WINS),
];

const SIGNS: Check = Between("signs_per_update", 1.0, CHURN_MAX_SIGNS_PER_UPDATE);
const PAGES: Check = Rel("snapshot_pages_rewritten", Le, 1.0, "snapshot_pages_total");

/// All four methods sustain updates with verified serving interleaved;
/// each repair re-signs the root and at most one auxiliary root; pinned
/// sessions survive; the snapshot refresh stays in place; the sustained
/// update rate of a live run does not regress.
const CHURN: &[Rule] = &[
    rule(Both, "", ALL, Positive("ref_qps")),
    rule(Both, "rows", ALL, Keys("method", REQUIRED_METHODS)),
    rule(Both, "rows", ALL, Positive("updates_per_sec query_qps")),
    rule(Both, "rows", ALL, SIGNS),
    rule(Both, "rows", ALL, True("sessions_survive")),
    rule(Both, "rows", ALL, True("snapshot_in_place")),
    rule(Both, "rows", ALL, PAGES),
    rule(Smoke, "rows", ALL, Regress("method", "updates_per_sec")),
];

/// One gated experiment.
pub struct Mode {
    /// `--mode` name; the artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The `schema` tag its records carry.
    pub schema: &'static str,
    pub rules: &'static [Rule],
    /// Re-runs the experiment at smoke size: `(throughput-mode
    /// settings and seed, --smoke-nodes)` → record.
    pub smoke: fn(&HarnessConfig, usize) -> Value,
}

impl Mode {
    /// The gate `--mode name` selects.
    pub fn named(name: &str) -> Option<&'static Mode> {
        MODES.iter().find(|m| m.name == name)
    }
}

const fn mode(
    name: &'static str,
    schema: &'static str,
    rules: &'static [Rule],
    smoke: fn(&HarnessConfig, usize) -> Value,
) -> Mode {
    Mode {
        name,
        schema,
        rules,
        smoke,
    }
}

/// The six gates, `throughput` (the default mode) first.
pub static MODES: [Mode; 6] = [
    mode("throughput", "spnet-throughput/v3", THROUGHPUT, |cfg, _| {
        crate::run_throughput(cfg).record()
    }),
    mode("scale", "spnet-scale/v1", SCALE, |cfg, nodes| {
        crate::run_scale(&crate::ScaleConfig::smoke(nodes, cfg.seed)).record()
    }),
    mode("service", "spnet-service/v1", SERVICE, |cfg, _| {
        crate::run_loadgen(&crate::LoadgenConfig::smoke(cfg.seed)).record()
    }),
    mode("store", "spnet-store/v1", STORE, |cfg, nodes| {
        crate::run_store(&crate::StoreConfig::smoke(nodes, cfg.seed)).record()
    }),
    mode("queries", "spnet-queries/v1", QUERIES, |cfg, nodes| {
        crate::run_queries(&crate::QueriesConfig::smoke(nodes, cfg.seed)).record()
    }),
    mode("churn", "spnet-churn/v1", CHURN, |cfg, nodes| {
        crate::run_churn(&crate::ChurnConfig::smoke(nodes, cfg.seed)).record()
    }),
];

/// A rule a record breaks: which, on which row, with what values.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static Rule,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} — {}", self.rule, self.detail)
    }
}

/// What [`check`] found: the broken rules, plus one rendered line per
/// `Regress` comparison made (passing ones too, for the CI log).
#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<Violation>,
    pub lines: Vec<String>,
}

/// A numeric member; NaN when absent, `null` or not a number, so every
/// comparison on it fails.
fn num(row: &Value, col: &str) -> f64 {
    row.get(col).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn text<'a>(row: &'a Value, col: &str) -> &'a str {
    row.get(col).and_then(Value::as_str).unwrap_or("")
}

/// How messages name a row: its `label`, `method` or `family`.
fn label(row: &Value) -> &str {
    let named = ["label", "method", "family"].map(|c| text(row, c));
    named.into_iter().find(|s| !s.is_empty()).unwrap_or("")
}

/// The rows at `path`, grouped by parent: `(parent label, rows)`.
fn groups<'a>(record: &'a Value, path: &str) -> Vec<(&'a str, Vec<&'a Value>)> {
    let member = |v: &'a Value, key: &str| v.get(key).map_or(&[][..], Value::items).iter();
    match path.split_once('/') {
        _ if path.is_empty() => vec![("", vec![record])],
        None => vec![("", member(record, path).collect())],
        Some((outer, inner)) => member(record, outer)
            .map(|parent| (label(parent), member(parent, inner).collect()))
            .collect(),
    }
}

/// The assertion in words, from the rule's data: `rows/sssp: heap_ms >=
/// 2 * bucket_ms [nodes >= 1000000, family in road]`.
impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        match self.check {
            Keys(col, names) => write!(f, "every {col} of {names}"),
            Any => write!(f, "some row"),
            Positive(cols) => write!(f, "{cols} > 0"),
            Between(col, lo, hi) => write!(f, "{lo} <= {col} <= {hi}"),
            True(col) => write!(f, "{col} == true"),
            Zero(col) => write!(f, "{col} == 0"),
            Rel(a, Ge, k, b) => write!(f, "{a} >= {k} * {b}"),
            Rel(a, Le, k, b) => write!(f, "{a} <= {k} * {b}"),
            Rel(a, Lt, k, b) => write!(f, "{a} < {k} * {b}"),
            Regress(_, cols) => write!(f, "{cols} >= baseline - {:.0}%", TOLERANCE * 100.0),
        }?;
        let conds = self.when.iter().map(|cond| match *cond {
            Cond::AtLeast(col, bound) => format!("{col} >= {bound}"),
            Cond::OneOf(col, words) => format!("{col} in {words}"),
        });
        match conds.collect::<Vec<_>>() {
            conds if conds.is_empty() => Ok(()),
            conds => write!(f, " [{}]", conds.join(", ")),
        }
    }
}

impl Rule {
    /// The rows of `record` at the rule's path that `when` accepts,
    /// each with the name messages give it.
    fn rows<'a>(&self, record: &'a Value, when: &[Cond]) -> Vec<(String, &'a Value)> {
        let accepts = |row: &Value| {
            when.iter().all(|cond| match *cond {
                Cond::AtLeast(col, bound) => num(row, col) >= bound,
                Cond::OneOf(col, words) => words.split(' ').any(|w| w == text(row, col)),
            })
        };
        let mut out = Vec::new();
        for (parent, rows) in groups(record, self.path) {
            for row in rows.into_iter().filter(|row| accepts(row)) {
                let name = match format!("{parent} {}", label(row)).trim() {
                    "" => "record".to_string(),
                    name => name.to_string(),
                };
                out.push((name, row));
            }
        }
        out
    }

    /// Applies the rule: one detail per broken assertion, and one
    /// rendered line per `Regress` comparison into `lines`.
    fn apply(
        &self,
        record: &Value,
        baseline: Option<&Value>,
        lines: &mut Vec<String>,
    ) -> Vec<String> {
        let rows = self.rows(record, self.when);
        let mut broken = Vec::new();
        // The row-by-row checks: `holds(row, column)` for each of `cols`;
        // a broken one reports that column and, if named, `other`.
        let mut each = |cols: &str, other: &str, holds: &dyn Fn(&Value, &str) -> bool| {
            for (name, row) in &rows {
                for col in cols.split(' ').filter(|col| !holds(row, col)) {
                    let found = |c| row.get(c).map_or("absent\n".into(), crate::json::write);
                    let mut detail = format!("{name}: {col} {}", found(col).trim_end());
                    if !other.is_empty() {
                        detail += &format!(", {other} {}", found(other).trim_end());
                    }
                    broken.push(detail);
                }
            }
        };
        match self.check {
            Keys(col, names) => {
                for (parent, rows) in groups(record, self.path) {
                    for name in names.split(' ') {
                        if !rows.iter().any(|r| text(r, col) == name) {
                            broken.push(format!("{parent}: no {col} {name}"));
                        }
                    }
                }
            }
            Any if rows.is_empty() => broken.push("no such row".to_string()),
            Any => {}
            Positive(cols) => each(cols, "", &|row, col| {
                num(row, col) > 0.0 && num(row, col).is_finite()
            }),
            Between(col, lo, hi) => each(col, "", &|row, col| {
                lo <= num(row, col) && num(row, col) <= hi
            }),
            True(col) => each(col, "", &|row, col| {
                row.get(col) == Some(&Value::Bool(true))
            }),
            Zero(col) => each(col, "", &|row, col| num(row, col) == 0.0),
            Rel(a, op, k, b) => each(a, b, &|row, _| match op {
                Ge => num(row, a) >= k * num(row, b),
                Le => num(row, a) <= k * num(row, b),
                Lt => num(row, a) < k * num(row, b),
            }),
            Regress(key, cols) => {
                let base = baseline.unwrap_or(&Value::Null);
                let (theirs, ours) = (num(base, "ref_qps"), num(record, "ref_qps"));
                // No probe on either side: nothing is comparable.
                let normalize = if theirs > 0.0 && ours > 0.0 {
                    theirs / ours
                } else {
                    f64::NAN
                };
                let base_rows = self.rows(base, ALL);
                for (name, row) in &rows {
                    let twin = base_rows
                        .iter()
                        .find(|(_, b)| text(b, key) == text(row, key));
                    for col in cols.split(' ') {
                        // A column the baseline never measured has
                        // nothing to regress from; no baseline row at
                        // all leaves nothing to hold the smoke to.
                        let committed = match twin.map(|(_, b)| b.get(col)) {
                            Some(Some(Value::Null)) => continue,
                            Some(Some(v)) => v.as_f64().unwrap_or(f64::NAN),
                            _ => f64::NAN,
                        };
                        let current = num(row, col);
                        let normalized = current * normalize;
                        let ok = normalized >= committed * (1.0 - TOLERANCE);
                        let change = (normalized / committed - 1.0) * 100.0;
                        lines.push(format!(
                            "{:4} {:26} baseline {committed:>10.1} current {current:>10.1} \
                             normalized {normalized:>10.1} ({change:+6.1}%)",
                            if ok { "ok" } else { "FAIL" },
                            format!("{name} {col}"),
                        ));
                        if !ok {
                            broken.push(format!("{name}: {col} {change:+.1}% vs the baseline"));
                        }
                    }
                }
            }
        }
        broken
    }
}

/// Applies the rules of `mode` that hold in `scope` to `record`.
/// `baseline` is the committed record that `Regress` rules compare
/// against; a smoke checked without one breaks them. `Err` when the
/// record carries another schema tag and no rule can be applied.
pub fn check(
    mode: &'static Mode,
    scope: Scope,
    record: &Value,
    baseline: Option<&Value>,
) -> Result<Verdict, String> {
    let found = text(record, "schema");
    if found != mode.schema {
        return Err(format!(
            "schema {found:?} is not {:?}; regenerate with `figures -- {}`",
            mode.schema, mode.name
        ));
    }
    let mut verdict = Verdict::default();
    let in_scope = |r: &&Rule| r.scope == Both || r.scope == scope;
    for rule in mode.rules.iter().filter(in_scope) {
        for detail in rule.apply(record, baseline, &mut verdict.lines) {
            verdict.violations.push(Violation { rule, detail });
        }
    }
    Ok(verdict)
}

/// For the experiments' own unit tests: `record` survives the writer
/// and the parser, and as a smoke against itself meets every rule of
/// its mode a tiny run can be held to — all but the timing ratios.
/// Returns the broken rules, rendered.
#[cfg(test)]
pub(crate) fn structural_violations(mode: &str, record: &Value) -> Vec<String> {
    use crate::json;
    assert_eq!(json::parse(&json::write(record)).as_ref(), Ok(record));
    let mode = Mode::named(mode).expect("a gated mode");
    let verdict = check(mode, Smoke, record, Some(record)).expect("the mode's schema tag");
    let structural = verdict
        .violations
        .iter()
        .filter(|v| !matches!(v.rule.check, Rel(..)));
    structural.map(Violation::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn mode(name: &str) -> &'static Mode {
        Mode::named(name).expect("a gated mode")
    }

    /// The committed artifact of `mode`, from the repository root.
    fn committed(mode: &Mode) -> Value {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            mode.name
        );
        json::parse(&std::fs::read_to_string(&path).expect(&path)).expect(&path)
    }

    fn step<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Arr(items) => &mut items[key.parse::<usize>().expect(key)],
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key} steps into a scalar"),
        }
    }

    fn scale(v: &mut Value, f: f64) {
        match v {
            Value::Num(n) => *n *= f,
            Value::Arr(items) => items.iter_mut().for_each(|v| scale(v, f)),
            Value::Obj(fields) => fields.iter_mut().for_each(|(_, v)| scale(v, f)),
            _ => {}
        }
    }

    /// `"path: key=to key=to"` — under the value at `path` (members and
    /// array indices), sets each `key` to the JSON text `to`, or to NaN
    /// (`NaN`), or deletes it (`-`), or scales every number below it by
    /// `f` (`x<f>`).
    fn edit(record: &mut Value, edits: &str) {
        let (path, sets) = edits.split_once(": ").expect(edits);
        let at = path.split('/').filter(|s| !s.is_empty()).fold(record, step);
        for (key, to) in sets.split(' ').map(|set| set.split_once('=').expect(set)) {
            match (to, to.strip_prefix('x'), &mut *at) {
                ("-", _, Value::Arr(items)) => drop(items.remove(key.parse().expect(key))),
                ("-", _, Value::Obj(fields)) => fields.retain(|(k, _)| k != key),
                ("NaN", ..) => *step(at, key) = Value::Num(f64::NAN),
                (_, Some(f), _) => scale(step(at, key), f.parse().expect(to)),
                _ => *step(at, key) = json::parse(to).expect(to),
            }
        }
    }

    /// The one rule of `mode` in `scope` whose text contains `words`.
    fn the_rule(mode: &Mode, scope: Scope, words: &str) -> *const Rule {
        let in_scope = mode
            .rules
            .iter()
            .filter(|r| r.scope == Both || r.scope == scope);
        let hits: Vec<&Rule> = in_scope.filter(|r| r.to_string().contains(words)).collect();
        assert_eq!(
            hits.len(),
            1,
            "{} {scope:?}: {words:?} names {hits:?}",
            mode.name
        );
        hits[0]
    }

    /// Applies `edits` to the committed artifact of `mode` (those that
    /// start with `@` to the baseline copy instead), checks the result
    /// in `scope`, and requires exactly the rules `want` names to fire.
    fn case(mode_name: &str, scope: Scope, edits: &[&str], want: &[&str]) {
        let mode = mode(mode_name);
        let (mut record, mut baseline) = (committed(mode), committed(mode));
        for e in edits {
            match e.strip_prefix('@') {
                Some(e) => edit(&mut baseline, e),
                None => edit(&mut record, e),
            }
        }
        let baseline = (scope == Smoke).then_some(&baseline);
        let verdict = check(mode, scope, &record, baseline).expect("schema tag");
        let mut fired: Vec<*const Rule> = verdict.violations.iter().map(|v| v.rule as _).collect();
        let mut want: Vec<_> = want.iter().map(|w| the_rule(mode, scope, w)).collect();
        for set in [&mut fired, &mut want] {
            set.sort_unstable();
            set.dedup();
        }
        let said: Vec<String> = verdict
            .violations
            .iter()
            .map(Violation::to_string)
            .collect();
        assert_eq!(
            fired, want,
            "{mode_name} {scope:?} {edits:?} fired {said:#?}"
        );
    }

    /// `test name: "mode" Scope [edits] => [words naming the rules that
    /// fire, exactly]; ...;` — every case starts from the committed
    /// artifact, which passes, so what fires is the edits' doing.
    macro_rules! cases {
        ($($name:ident: $($mode:literal $scope:ident [$($edit:literal),*] => [$($want:literal),*]);+ ;)*) => {
            $(#[test] fn $name() { $(case($mode, $scope, &[$($edit),*], &[$($want),*]);)+ })*
            /// Every `(mode, scope, words)` some case makes fire.
            const FIRED: &[(&str, Scope, &str)] = &[$($($(($mode, $scope, $want),)*)+)*];
        };
    }

    cases! {
    parser_handles_null_batch_columns:
        "throughput" Committed ["methods/1: batch_prove_qps=null batch_verify_qps=null"] => ["stream_verify_qps > 0", ">= 1 * verify_qps"];
    schema_flags_null_stream_column:
        "throughput" Committed ["methods/2: stream_verify_qps=null"] => ["stream_verify_qps > 0"];
        "throughput" Committed ["methods/2: stream_verify_qps=0"] => ["stream_verify_qps > 0"];
        "throughput" Committed ["methods/0: prove_qps=NaN"] => ["stream_verify_qps > 0"];
        "throughput" Committed [": ref_qps=-"] => ["ref_qps > 0"];
    schema_flags_null_batch_columns:
        "throughput" Smoke ["methods/0: batch_verify_qps=null"] => ["stream_verify_qps > 0", "baseline"];
    schema_flags_missing_method:
        "throughput" Committed ["methods: 1=-"] => ["every method"];
        "throughput" Smoke ["methods: 1=-"] => ["every method"];
    schema_flags_lost_amortization_only_when_strict:
        "throughput" Committed ["methods/1: verify_qps=900 batch_verify_qps=100"] => [">= 1 * verify_qps"];
        "throughput" Committed ["methods/2: verify_qps=900 batch_verify_qps=100"] => [];
        "throughput" Smoke ["methods/1: verify_qps=900 batch_verify_qps=100", "@methods/1: verify_qps=900 batch_verify_qps=100"] => [];
    compare_passes_within_tolerance_and_fails_beyond:
        "throughput" Smoke ["@methods/0: prove_qps=4000", "methods/0: prove_qps=3500"] => [];
        "throughput" Smoke ["@methods/2: verify_qps=430", "methods/2: verify_qps=300"] => ["baseline"];
    normalization_cancels_machine_speed:
        "throughput" Smoke [": methods=x0.5 ref_qps=x0.5"] => [];
        "throughput" Smoke [": methods=x0.5"] => ["baseline"];
        "throughput" Smoke [": ref_qps=0"] => ["ref_qps > 0", "baseline"];
    gate_report_normalizes_by_ref_probe:
        "service" Smoke [": ref_qps=x0.5 single_qps=x0.5 service_qps=x0.5"] => [];
        "churn" Smoke [": ref_qps=x0.5", "rows/0: updates_per_sec=x0.5", "rows/1: updates_per_sec=x0.5",
            "rows/2: updates_per_sec=x0.5", "rows/3: updates_per_sec=x0.5"] => [];
        "churn" Smoke ["rows/2: updates_per_sec=x0.5"] => ["baseline"];
        "churn" Smoke [": ref_qps=NaN"] => ["ref_qps > 0", "baseline"];
    compare_fails_when_batch_column_disappears:
        "throughput" Smoke ["methods/1: batch_verify_qps=-"] => ["stream_verify_qps > 0", "baseline"];
    compare_skips_null_baseline_columns:
        "throughput" Smoke ["@methods/1: batch_prove_qps=null"] => [];
        "throughput" Smoke ["@methods: 1=-"] => ["baseline"];
    scale_schema_requires_million_node_row:
        "scale" Committed ["rows: 1=-"] => ["some row"];
        "scale" Committed ["rows/1: nodes=null"] => ["some row"];
    scale_schema_enforces_road_speedup_on_big_row:
        "scale" Committed ["rows/1/sssp/0: heap_ms=180 bucket_ms=100"] => [">= 2 * bucket_ms"];
        "scale" Committed ["rows/1/sssp/0: heap_ms=220 bucket_ms=100", "rows/0/sssp/0: heap_ms=150 bucket_ms=100",
            "rows/1/sssp/1: heap_ms=150 bucket_ms=100"] => [];
        "scale" Committed ["rows/1/sssp/0: bucket_ms=NaN"] => ["bucket_ms > 0", ">= 2 * bucket_ms"];
    scale_schema_flags_missing_family_and_method:
        "scale" Committed ["rows/1/sssp: 1=-", "rows/0/methods: 1=-"] => ["every family", "every method"];
        "scale" Committed ["rows/0/sssp/2: heap_ms=null"] => ["heap_ms bucket_ms > 0"];
        "scale" Smoke ["rows/0/methods/2: prove_qps=0"] => ["prove_qps verify_qps > 0"];
    scale_smoke_flags_bucket_regression_only_beyond_tolerance:
        "scale" Smoke ["rows/0/sssp/0: heap_ms=100 bucket_ms=105"] => [];
        "scale" Smoke ["rows/0/sssp/0: heap_ms=100 bucket_ms=130"] => ["<= 1.15 * heap_ms"];
    scale_smoke_flags_empty_run:
        "scale" Smoke [": rows=[]"] => ["some row"];
    store_schema_requires_million_node_row:
        "store" Committed ["rows: 1=-"] => ["some row"];
    store_schema_pins_zero_sign_cold_start:
        "store" Committed ["rows/1: sign_ops_load=2"] => ["sign_ops_load == 0"];
        "store" Committed ["rows/0: sign_ops_load=null"] => ["sign_ops_load == 0"];
        "store" Committed [] => [];
    store_schema_enforces_load_speedup_on_big_row:
        "store" Committed ["rows/1: build_sign_s=100 load_file_s=90"] => [">= 1.25 * load_file_s"];
        "store" Committed ["rows/0: build_sign_s=10 load_file_s=9", "rows/1: build_sign_s=100 load_file_s=3"] => [];
    store_smoke_flags_signing_and_slow_load:
        "store" Smoke ["rows/0: sign_ops_load=1"] => ["sign_ops_load == 0"];
        "store" Smoke ["rows/0: build_sign_s=5 load_file_s=6.5"] => ["<= 1.15 * build_sign_s"];
        "store" Smoke ["rows/0: build_sign_s=5 load_file_s=5.5"] => [];
        "store" Smoke ["rows/0: load_file_s=NaN"] => ["sign_ops_build > 0", "<= 1.15 * build_sign_s"];
        "store" Smoke ["rows/0: sign_ops_build=0"] => ["sign_ops_build > 0"];
        "store" Smoke [": rows=[]"] => ["some row"];
    service_schema_enforces_speedup_only_with_enough_cores: // committed on one core
        "service" Committed [": cores=4 single_qps=1000 service_qps=1400"] => [">= 2 * single_qps"];
        "service" Committed [": cores=4 single_qps=1000 service_qps=2300"] => [];
        "service" Committed [": cores=1 single_qps=1000 service_qps=900"] => [];
        "service" Committed [": cores=4 service_qps=NaN"] => ["executed > 0", ">= 2 * single_qps"];
    service_schema_flags_broken_invariants:
        "service" Committed [": bit_identical=false executed=0", "methods: 3=-"] => ["bit_identical == true", "executed > 0", "every method"];
        "service" Smoke [": bit_identical=null"] => ["bit_identical == true"];
        "service" Committed [": cores=0"] => ["executed > 0"];
        "service" Committed ["methods/1: queries=0"] => ["sessions queries service_qps > 0"];
    service_smoke_normalizes_by_ref_probe:
        "service" Smoke [": cores=4 single_qps=500 service_qps=1250 ref_qps=x0.5", "@: cores=4 single_qps=1000 service_qps=2500"] => [];
        "service" Smoke [": cores=4 single_qps=1000 service_qps=1500", "@: cores=4 single_qps=1000 service_qps=2500"]
            => ["service_qps >= baseline", ">= 1.7 * single_qps"];
    service_smoke_skips_concurrent_column_without_cores:
        "service" Smoke [": cores=1 service_qps=x0.6"] => [];
        "service" Smoke [": cores=1 single_qps=x0.5"] => ["single_qps >= baseline"];
    service_smoke_gives_speedup_the_tolerance:
        "service" Smoke [": cores=4 single_qps=1000 service_qps=1750", "@: single_qps=1000 service_qps=1000"] => [];
        "service" Smoke [": cores=4 single_qps=1000 service_qps=1500", "@: single_qps=1000 service_qps=1000"] => [">= 1.7 * single_qps"];
    queries_schema_flags_missing_method_and_trivial_range:
        "queries" Committed ["rows/0: range_members=1", "rows: 2=-"] => ["every method", "<= range_members"];
        "queries" Committed ["rows/0: knn_cert_bytes=0"] => ["knn_cert_bytes"];
        "queries" Committed [] => [];
    queries_schema_bounds_knn_overhead:
        "queries" Committed ["rows/1: plain_verify_qps=800 knn_verify_qps=100"] => ["<= 5 * knn_verify_qps"];
        "queries" Committed ["rows/2: knn_verify_qps=NaN"] => ["knn_cert_bytes", "<= 5 * knn_verify_qps"];
    queries_schema_requires_pooling_win:
        "queries" Committed ["rows/3: matrix_cert_bytes=1000 matrix_separate_bytes=1000"] => ["< 1 * matrix_separate_bytes"];
        "queries" Smoke ["rows/3: matrix_separate_bytes=null"] => ["< 1 * matrix_separate_bytes"];
    queries_smoke_widens_overhead_bar_by_tolerance:
        "queries" Committed ["rows/0: plain_verify_qps=550 knn_verify_qps=100"] => ["<= 5 * knn_verify_qps"];
        "queries" Smoke ["rows/0: plain_verify_qps=550 knn_verify_qps=100"] => [];
        "queries" Smoke ["rows/0: plain_verify_qps=600 knn_verify_qps=100"] => ["<= 5.75 * knn_verify_qps"];
        "queries" Smoke [": rows=[]"] => ["every method"];
    churn_schema_bounds_signs_per_update:
        "churn" Committed ["rows/1: signs_per_update=2.25"] => ["signs_per_update"];
        "churn" Committed ["rows/1: signs_per_update=0.5"] => ["signs_per_update"];
        "churn" Smoke ["rows/1: signs_per_update=NaN"] => ["signs_per_update"];
    churn_schema_flags_broken_invariants:
        "churn" Committed ["rows: 3=-"] => ["every method"];
        "churn" Committed ["rows/0: query_qps=null"] => ["updates_per_sec query_qps > 0"];
        "churn" Committed ["rows/2: sessions_survive=false"] => ["sessions_survive"];
        "churn" Committed ["rows/2: snapshot_in_place=\"yes\""] => ["snapshot_in_place"];
        "churn" Committed ["rows/0: snapshot_pages_rewritten=23"] => ["<= 1 * snapshot_pages_total"];
    }

    /// The other half of the table above: no rule of any mode is
    /// without a case that makes it fire.
    #[test]
    fn every_rule_has_a_negative_case() {
        for m in &MODES {
            let fired = FIRED.iter().filter(|(name, ..)| *name == m.name);
            let fired: Vec<_> = fired.map(|(_, scope, w)| the_rule(m, *scope, w)).collect();
            for rule in m.rules {
                assert!(fired.contains(&(rule as *const Rule)), "{}: {rule}", m.name);
            }
        }
    }

    /// Every committed artifact parses and passes its own gate.
    #[test]
    fn committed_baselines_pass_their_gates() {
        for m in &MODES {
            let verdict = check(m, Committed, &committed(m), None).expect("schema tag");
            assert!(
                verdict.violations.is_empty(),
                "{}: {:?}",
                m.name,
                verdict.violations
            );
        }
    }

    /// A record gated against itself is clean in the smoke scope too,
    /// every comparison it makes renders as `ok`, and without a
    /// baseline each of them fails.
    #[test]
    fn gate_report_end_to_end() {
        for (m, compared) in MODES.iter().zip([20, 0, 1, 0, 0, 4]) {
            let record = committed(m);
            let verdict = check(m, Smoke, &record, Some(&record)).expect("schema tag");
            assert!(
                verdict.violations.is_empty(),
                "{}: {:?}",
                m.name,
                verdict.violations
            );
            assert!(
                verdict.lines.iter().all(|l| l.starts_with("ok")),
                "{:?}",
                verdict.lines
            );
            assert_eq!(verdict.lines.len(), compared, "{}", m.name);
            let alone = check(m, Smoke, &record, None).expect("schema tag");
            assert_eq!(alone.violations.len(), compared, "{}", m.name);
            assert!(
                alone.lines.iter().all(|l| l.starts_with("FAIL")),
                "{:?}",
                alone.lines
            );
        }
    }

    // Per mode (random values and broken syntax are `json::tests`'
    // business): the committed artifact survives parse → write → parse ...
    fn artifact_round_trips(mode_name: &str) {
        let record = committed(mode(mode_name));
        assert_eq!(json::parse(&json::write(&record)), Ok(record));
    }

    // ... and a record that is not this mode's, or is empty, does not pass.
    fn garbage_is_refused(mode_name: &str) {
        let mode = mode(mode_name);
        for schema in ["other/v9", &mode.schema.replace("/v", "/v0.")] {
            let stranger = Value::obj([("schema", schema.into())]);
            let refused = check(mode, Committed, &stranger, None).expect_err("another schema");
            assert!(
                refused.contains(&format!("figures -- {mode_name}")),
                "{refused}"
            );
        }
        let bare = Value::obj([("schema", mode.schema.into())]);
        let empty = |key| Value::obj([("schema", mode.schema.into()), (key, Value::Arr(vec![]))]);
        for hollow in [bare, empty("rows"), empty("methods")] {
            let verdict = check(mode, Committed, &hollow, None).expect("schema tag");
            assert!(!verdict.violations.is_empty(), "{mode_name}: {hollow:?}");
        }
    }

    macro_rules! per_mode {
        ($($round_trip:ident $garbage:ident: $mode:literal;)*) => {
            $(#[test] fn $round_trip() { artifact_round_trips($mode) }
              #[test] fn $garbage() { garbage_is_refused($mode) })*
        };
    }

    per_mode! {
        parser_inverts_report_writer parser_rejects_garbage: "throughput";
        scale_parser_inverts_report_writer scale_parser_rejects_garbage: "scale";
        store_parser_inverts_report_writer store_parser_rejects_garbage: "store";
        service_parser_inverts_report_writer service_parser_rejects_garbage: "service";
        queries_parser_inverts_report_writer queries_parser_rejects_garbage: "queries";
    }
}
