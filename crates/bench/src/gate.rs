//! The benchmark gate: one rule evaluator over [`Value`] records plus
//! one `const` rule table per committed artifact.
//!
//! An experiment that commits an artifact emits a record (`record()` on
//! its report) and commits one as `BENCH_<mode>.json`. A [`Mode`] names
//! the artifact's schema tag, how to re-run the experiment at smoke
//! size, and the rules that hold of its records. A [`Rule`] selects
//! rows — the elements of an array member (`"rows"`), or of an array
//! inside each of those (`"rows/sssp"`) — keeps the ones its `when`
//! conditions accept, and applies one [`Check`]:
//!
//! * `Keys(col, names)` — each name is some row's `col` (per parent),
//! * `Any` — at least one row is selected,
//! * `Positive(cols)` — finite and `> 0`, so neither `null` nor absent,
//! * `Rel(a, op, k, b)` — `a ≥ k·b` or `a ≤ k·b`.
//!
//! Lists (`names`, `cols`) are space-separated words. Every comparison
//! is written so that a NaN, `null` or absent operand fails it. Rules
//! compare columns of one record, never against another host's
//! numbers. A rule's [`Scope`] says whether it holds of the committed
//! artifact, of a live smoke run, or of both; [`check`] applies the
//! same table to either, and that is all the CI gate (`gate --mode
//! <m>`) does.

use crate::json::Value;
use crate::scale;
use Check::*;
use Op::*;
use Scope::*;

/// The slack a smoke gets on timing ratios the committed artifact must
/// meet exactly.
pub const TOLERANCE: f64 = 0.15;
/// The methods a scale row must cover (FULL is O(|V|²): excluded).
pub const SCALE_METHODS: &str = "DIJ LDM HYP";
/// The SSSP families a scale row must cover.
pub const SCALE_FAMILIES: &str = "road highway scale_free";
/// Node count the committed scale baseline must reach.
pub const MIN_NODES: f64 = 1e6;
/// Required bucket-over-heap SSSP speedup on the ≥1M road network.
pub const SCALE_ROAD_SPEEDUP: f64 = 2.0;

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
}

/// What a rule asserts of the rows it selects (see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum Check {
    Keys(&'static str, &'static str),
    Any,
    Positive(&'static str),
    Rel(&'static str, Op, f64, &'static str),
}

/// One line of a rule table.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub scope: Scope,
    /// `"member"` or `"member/member"`: where the rows are.
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

/// One gated experiment.
pub struct Mode {
    /// `--mode` name; the artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The `schema` tag its records carry.
    pub schema: &'static str,
    pub rules: &'static [Rule],
    /// Re-runs the experiment at smoke size: `(seed, --smoke-nodes)` →
    /// record.
    pub smoke: fn(u64, usize) -> Value,
}

impl Mode {
    /// The gate `--mode name` selects.
    pub fn named(name: &str) -> Option<&'static Mode> {
        MODES.iter().find(|m| m.name == name)
    }
}

/// The gates, the default mode first: one per committed artifact.
pub static MODES: [Mode; 1] = [Mode {
    name: "scale",
    schema: "spnet-scale/v1",
    rules: SCALE,
    smoke: |seed, nodes| scale::run_scale(&scale::ScaleConfig::smoke(nodes, seed)).record(),
}];

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
        write!(f, "{}: ", self.path)?;
        match self.check {
            Keys(col, names) => write!(f, "every {col} of {names}"),
            Any => write!(f, "some row"),
            Positive(cols) => write!(f, "{cols} > 0"),
            Rel(a, Ge, k, b) => write!(f, "{a} >= {k} * {b}"),
            Rel(a, Le, k, b) => write!(f, "{a} <= {k} * {b}"),
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
    fn rows<'a>(&self, record: &'a Value) -> Vec<(String, &'a Value)> {
        let accepts = |row: &Value| {
            self.when.iter().all(|cond| match *cond {
                Cond::AtLeast(col, bound) => num(row, col) >= bound,
                Cond::OneOf(col, words) => words.split(' ').any(|w| w == text(row, col)),
            })
        };
        let mut out = Vec::new();
        for (parent, rows) in groups(record, self.path) {
            for row in rows.into_iter().filter(|row| accepts(row)) {
                let name = format!("{parent} {}", label(row));
                out.push((name.trim().to_string(), row));
            }
        }
        out
    }

    /// Applies the rule: one detail per broken assertion.
    fn apply(&self, record: &Value) -> Vec<String> {
        let rows = self.rows(record);
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
            Rel(a, op, k, b) => each(a, b, &|row, _| match op {
                Ge => num(row, a) >= k * num(row, b),
                Le => num(row, a) <= k * num(row, b),
            }),
        }
        broken
    }
}

/// Applies the rules of `mode` that hold in `scope` to `record`:
/// the broken ones. `Err` when the record carries another schema tag
/// and no rule can be applied.
pub fn check(mode: &'static Mode, scope: Scope, record: &Value) -> Result<Vec<Violation>, String> {
    let found = text(record, "schema");
    if found != mode.schema {
        return Err(format!(
            "schema {found:?} is not {:?}; regenerate with `figures -- {}`",
            mode.schema, mode.name
        ));
    }
    let mut broken = Vec::new();
    for rule in mode
        .rules
        .iter()
        .filter(|r| r.scope == Both || r.scope == scope)
    {
        broken.extend(
            rule.apply(record)
                .into_iter()
                .map(|detail| Violation { rule, detail }),
        );
    }
    Ok(broken)
}

/// For the experiments' own unit tests: `record` survives the writer
/// and the parser, and as a smoke meets every rule of its mode a tiny
/// run can be held to — all but the timing ratios. Returns the broken
/// rules, rendered.
#[cfg(test)]
pub(crate) fn structural_violations(mode: &str, record: &Value) -> Vec<String> {
    use crate::json;
    assert_eq!(json::parse(&json::write(record)).as_ref(), Ok(record));
    let mode = Mode::named(mode).expect("a gated mode");
    let violations = check(mode, Smoke, record).expect("the mode's schema tag");
    let structural = violations
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

    /// The repository root, where the committed artifacts live.
    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The committed artifact of `mode`.
    fn committed(mode: &Mode) -> Value {
        let path = repo_root().join(format!("BENCH_{}.json", mode.name));
        let text = std::fs::read_to_string(&path).expect("committed artifact");
        json::parse(&text).expect("committed artifact is JSON")
    }

    fn step<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Arr(items) => &mut items[key.parse::<usize>().expect(key)],
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key} steps into a scalar"),
        }
    }

    /// `"path: key=to key=to"` — under the value at `path` (members and
    /// array indices), sets each `key` to the JSON text `to`, or to NaN
    /// (`NaN`), or deletes it (`-`).
    fn edit(record: &mut Value, edits: &str) {
        let (path, sets) = edits.split_once(": ").expect(edits);
        let at = path.split('/').filter(|s| !s.is_empty()).fold(record, step);
        for (key, to) in sets.split(' ').map(|set| set.split_once('=').expect(set)) {
            match (to, &mut *at) {
                ("-", Value::Arr(items)) => drop(items.remove(key.parse().expect(key))),
                ("-", Value::Obj(fields)) => fields.retain(|(k, _)| k != key),
                ("NaN", _) => *step(at, key) = Value::Num(f64::NAN),
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

    /// Applies `edits` to the committed artifact of `mode`, checks the
    /// result in `scope`, and requires exactly the rules `want` names
    /// to fire.
    fn case(mode_name: &str, scope: Scope, edits: &[&str], want: &[&str]) {
        let mode = mode(mode_name);
        let mut record = committed(mode);
        for e in edits {
            edit(&mut record, e);
        }
        let violations = check(mode, scope, &record).expect("schema tag");
        let mut fired: Vec<*const Rule> = violations.iter().map(|v| v.rule as _).collect();
        let mut want: Vec<_> = want.iter().map(|w| the_rule(mode, scope, w)).collect();
        for set in [&mut fired, &mut want] {
            set.sort_unstable();
            set.dedup();
        }
        let said: Vec<String> = violations.iter().map(Violation::to_string).collect();
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
            let violations = check(m, Committed, &committed(m)).expect("schema tag");
            assert!(violations.is_empty(), "{}: {violations:?}", m.name);
        }
    }

    /// A committed record is clean in the smoke scope too: the smoke's
    /// rules are ones the full-size run also meets.
    #[test]
    fn gate_report_end_to_end() {
        for m in &MODES {
            let violations = check(m, Smoke, &committed(m)).expect("schema tag");
            assert!(violations.is_empty(), "{}: {violations:?}", m.name);
        }
    }

    /// Every `BENCH_*.json` at the repository root has a gate, and
    /// every gate has its artifact: no ungated number is committed.
    #[test]
    fn every_committed_artifact_is_gated() {
        let entries = std::fs::read_dir(repo_root()).expect("repository root");
        let names = entries.map(|e| e.expect("directory entry").file_name());
        let mut artifacts: Vec<String> = names
            .filter_map(|f| {
                Some(
                    f.to_str()?
                        .strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .into(),
                )
            })
            .collect();
        artifacts.sort();
        let mut modes: Vec<String> = MODES.iter().map(|m| m.name.to_string()).collect();
        modes.sort();
        assert_eq!(artifacts, modes);
    }

    /// The committed artifact survives parse → write → parse (random
    /// values and broken syntax are `json::tests`' business) ...
    #[test]
    fn scale_parser_inverts_report_writer() {
        let record = committed(mode("scale"));
        assert_eq!(json::parse(&json::write(&record)), Ok(record));
    }

    /// ... and a record that is not this mode's, or is empty, does not
    /// pass.
    #[test]
    fn scale_parser_rejects_garbage() {
        let mode = mode("scale");
        for schema in ["other/v9", &mode.schema.replace("/v", "/v0.")] {
            let stranger = Value::obj([("schema", schema.into())]);
            let refused = check(mode, Committed, &stranger).expect_err("another schema");
            assert!(refused.contains("figures -- scale"), "{refused}");
        }
        let bare = Value::obj([("schema", mode.schema.into())]);
        let empty = Value::obj([("schema", mode.schema.into()), ("rows", Value::Arr(vec![]))]);
        for hollow in [bare, empty] {
            let violations = check(mode, Committed, &hollow).expect("schema tag");
            assert!(!violations.is_empty(), "{hollow:?}");
        }
    }
}
