//! The source-level profile document: exact cost and miss attribution
//! keyed by Facile source location.
//!
//! A [`ProfileDoc`] is produced at the end of an observed, memoizing run
//! by joining three things the pipeline keeps separate:
//!
//! * the per-action **debug-info table** the compiler ships alongside the
//!   action table (source span, guard span, construct kind, binding-time
//!   operand signature — resolved to line/column by the caller, since
//!   this crate sits below the compiler and never sees source text),
//! * the per-action **cost counters** from [`Metrics`](crate::Metrics)
//!   (`action_fast_insns` / `action_slow_insns` / replays / visits), and
//! * the per-action **miss attribution** (`action_misses`,
//!   `miss_values`).
//!
//! The attribution is *exact*, not sampled: instruction retirement is
//! always a dynamic op, so it happens inside some action's group in both
//! engines, and miss recovery re-executes only the run-time-static slice
//! (which retires nothing). Summing `fast_insns + slow_insns` over the
//! rows therefore reproduces `sim.insns` bit-for-bit; summing `misses`
//! reproduces `sim.misses`.
//!
//! Rendering helpers fold the rows into the three report shapes
//! `sim_prof` prints: a flat per-line profile, folded stacks
//! (flamegraph-compatible `a;b;c count` lines), and a top-k
//! miss-attribution table.

use crate::json::{escape_into, parse, ParseError, Value};
use crate::report::SimStatsSnapshot;
use std::fmt::Write as _;

/// Schema tag written into every profile document.
pub const PROF_SCHEMA: &str = "facile-prof/v1";

/// One action's resolved source site and attributed costs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActionRow {
    /// Action number (index into the compiled action table).
    pub action: u32,
    /// Guarding construct: `plain`, `verify`, `branch`, `switch`, `index`.
    pub kind: String,
    /// 1-based line of the start of the group's source span.
    pub line: u32,
    /// 1-based column of the start of the group's source span.
    pub col: u32,
    /// 1-based line of the end of the group's source span (inclusive).
    pub end_line: u32,
    /// 1-based line of the guard construct (the dynamic result test,
    /// branch or `next(...)` that closes the group).
    pub guard_line: u32,
    /// 1-based column of the guard construct.
    pub guard_col: u32,
    /// Operands replayed from memoized placeholders (rt-static class).
    pub ph_operands: u32,
    /// Operands read from live registers on replay (dynamic class).
    pub reg_operands: u32,
    /// Fast-engine replays of this action.
    pub replays: u64,
    /// Instructions retired by those replays.
    pub fast_insns: u64,
    /// Slow-engine (recording) executions of this action's group.
    pub slow_visits: u64,
    /// Instructions retired by those recordings.
    pub slow_insns: u64,
    /// Action-cache misses charged to this action.
    pub misses: u64,
    /// Observed divergent values at those misses: `(value, count)`.
    pub miss_values: Vec<(i64, u64)>,
}

impl ActionRow {
    /// Instructions attributed to this action across both engines.
    pub fn insns(&self) -> u64 {
        self.fast_insns.saturating_add(self.slow_insns)
    }
}

/// One run's source-level profile, as written by `--profile-out`.
#[derive(Clone, Debug, Default)]
pub struct ProfileDoc {
    /// Human label for the run (workload/config name).
    pub label: String,
    /// Source file name the rows' lines refer to.
    pub file: String,
    /// Snapshot of the runtime counters (the exactness reference).
    pub sim: SimStatsSnapshot,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// One row per action, in action-number order.
    pub rows: Vec<ActionRow>,
    /// Misses whose divergent value exceeded the per-action tracking cap
    /// (the values are lost; the miss counts are not).
    pub miss_value_overflow: u64,
}

/// Flat per-line aggregation of a profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineCost {
    /// 1-based source line (of the actions' span starts).
    pub line: u32,
    /// Instructions attributed, both engines.
    pub insns: u64,
    /// Fast-engine replays.
    pub replays: u64,
    /// Misses charged to actions on this line.
    pub misses: u64,
    /// Actions contributing to this line.
    pub actions: u32,
}

impl ProfileDoc {
    /// Total instructions attributed across all rows — equals
    /// `sim.insns` for a run observed end to end.
    pub fn attributed_insns(&self) -> u64 {
        self.rows.iter().fold(0u64, |a, r| a.saturating_add(r.insns()))
    }

    /// Total misses attributed across all rows — equals `sim.misses`.
    pub fn attributed_misses(&self) -> u64 {
        self.rows.iter().fold(0u64, |a, r| a.saturating_add(r.misses))
    }

    /// Aggregates rows by source line, descending by attributed
    /// instructions (ties broken by line number).
    pub fn flat_lines(&self) -> Vec<LineCost> {
        let mut by_line: std::collections::BTreeMap<u32, LineCost> = std::collections::BTreeMap::new();
        for r in &self.rows {
            let e = by_line.entry(r.line).or_insert_with(|| LineCost {
                line: r.line,
                ..LineCost::default()
            });
            e.insns = e.insns.saturating_add(r.insns());
            e.replays = e.replays.saturating_add(r.replays);
            e.misses = e.misses.saturating_add(r.misses);
            e.actions += 1;
        }
        let mut out: Vec<LineCost> = by_line.into_values().collect();
        out.sort_by(|a, b| b.insns.cmp(&a.insns).then(a.line.cmp(&b.line)));
        out
    }

    /// Folded-stack (flamegraph-collapsed) form: one
    /// `label;kind;file:line count` line per action with a nonzero
    /// instruction attribution, using the guard line as the leaf frame.
    pub fn folded_stacks(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            if r.insns() == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "{};{};{}:{} {}",
                self.label,
                r.kind,
                self.file,
                r.guard_line,
                r.insns()
            );
        }
        s
    }

    /// The `k` rows with the most misses, descending (rows with zero
    /// misses excluded).
    pub fn top_misses(&self, k: usize) -> Vec<&ActionRow> {
        let mut rows: Vec<&ActionRow> = self.rows.iter().filter(|r| r.misses > 0).collect();
        rows.sort_by(|a, b| b.misses.cmp(&a.misses).then(a.action.cmp(&b.action)));
        rows.truncate(k);
        rows
    }

    /// Folds another profile of the **same compiled program** into this
    /// one: per-row costs (replays, insns, visits, misses, miss values)
    /// add element-wise, the `sim` snapshot adds field-wise, and
    /// `wall_ns` takes the maximum (concurrent lanes overlap).
    ///
    /// Both documents must describe the same action table: the same
    /// number of rows with identical action numbers, kinds, spans and
    /// operand signatures. The exactness invariants survive the merge —
    /// Σ row insns still equals the (summed) `sim.insns`, Σ row misses
    /// the (summed) `sim.misses` — so a merged batch document passes
    /// `sim_prof --check` unchanged.
    ///
    /// # Errors
    ///
    /// Describes the first shape mismatch; `self` is unchanged on error.
    pub fn merge(&mut self, other: &ProfileDoc) -> Result<(), String> {
        if self.rows.len() != other.rows.len() {
            return Err(format!(
                "action tables differ: {} rows vs {}",
                self.rows.len(),
                other.rows.len()
            ));
        }
        for (mine, theirs) in self.rows.iter().zip(other.rows.iter()) {
            let same_site = mine.action == theirs.action
                && mine.kind == theirs.kind
                && mine.line == theirs.line
                && mine.col == theirs.col
                && mine.end_line == theirs.end_line
                && mine.guard_line == theirs.guard_line
                && mine.guard_col == theirs.guard_col
                && mine.ph_operands == theirs.ph_operands
                && mine.reg_operands == theirs.reg_operands;
            if !same_site {
                return Err(format!(
                    "action {} resolves to different sites (different compiled programs?)",
                    mine.action
                ));
            }
        }
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows.iter()) {
            mine.replays = mine.replays.saturating_add(theirs.replays);
            mine.fast_insns = mine.fast_insns.saturating_add(theirs.fast_insns);
            mine.slow_visits = mine.slow_visits.saturating_add(theirs.slow_visits);
            mine.slow_insns = mine.slow_insns.saturating_add(theirs.slow_insns);
            mine.misses = mine.misses.saturating_add(theirs.misses);
            for &(v, c) in &theirs.miss_values {
                if let Some(slot) = mine.miss_values.iter_mut().find(|(sv, _)| *sv == v) {
                    slot.1 = slot.1.saturating_add(c);
                } else {
                    mine.miss_values.push((v, c));
                }
            }
        }
        self.sim.merge(&other.sim);
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.miss_value_overflow = self
            .miss_value_overflow
            .saturating_add(other.miss_value_overflow);
        Ok(())
    }

    /// Serializes the document as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.rows.len() * 128);
        s.push_str("{\"schema\":");
        escape_into(&mut s, PROF_SCHEMA);
        s.push_str(",\"label\":");
        escape_into(&mut s, &self.label);
        s.push_str(",\"file\":");
        escape_into(&mut s, &self.file);
        let _ = write!(
            s,
            ",\"wall_ns\":{},\"miss_value_overflow\":{},\"sim\":{{",
            self.wall_ns, self.miss_value_overflow
        );
        let mut first = true;
        for (k, v) in [
            ("cycles", self.sim.cycles),
            ("insns", self.sim.insns),
            ("fast_insns", self.sim.fast_insns),
            ("slow_insns", self.sim.slow_insns),
            ("fast_steps", self.sim.fast_steps),
            ("slow_steps", self.sim.slow_steps),
            ("misses", self.sim.misses),
            ("recoveries", self.sim.recoveries),
            ("actions_replayed", self.sim.actions_replayed),
            ("ext_calls", self.sim.ext_calls),
        ] {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push_str("},\"actions\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"action\":{},\"kind\":", r.action);
            escape_into(&mut s, &r.kind);
            let _ = write!(
                s,
                ",\"line\":{},\"col\":{},\"end_line\":{},\"guard_line\":{},\"guard_col\":{},\
                 \"ph\":{},\"reg\":{},\"replays\":{},\"fast_insns\":{},\"slow_visits\":{},\
                 \"slow_insns\":{},\"misses\":{},\"miss_values\":[",
                r.line,
                r.col,
                r.end_line,
                r.guard_line,
                r.guard_col,
                r.ph_operands,
                r.reg_operands,
                r.replays,
                r.fast_insns,
                r.slow_visits,
                r.slow_insns,
                r.misses
            );
            for (j, (v, c)) in r.miss_values.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{v},{c}]");
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Rebuilds a document from its parsed JSON value.
    pub fn from_value(v: &Value) -> Option<ProfileDoc> {
        if v.get("schema")?.as_str()? != PROF_SCHEMA {
            return None;
        }
        let u = |o: &Value, k: &str| o.get(k).and_then(Value::as_u64);
        let sim_v = v.get("sim")?;
        let sim = SimStatsSnapshot {
            cycles: u(sim_v, "cycles")?,
            insns: u(sim_v, "insns")?,
            fast_insns: u(sim_v, "fast_insns")?,
            slow_insns: u(sim_v, "slow_insns")?,
            fast_steps: u(sim_v, "fast_steps")?,
            slow_steps: u(sim_v, "slow_steps")?,
            misses: u(sim_v, "misses")?,
            recoveries: u(sim_v, "recoveries")?,
            actions_replayed: u(sim_v, "actions_replayed")?,
            ext_calls: u(sim_v, "ext_calls")?,
        };
        let mut rows = Vec::new();
        for r in v.get("actions")?.as_arr()? {
            rows.push(ActionRow {
                action: u(r, "action")? as u32,
                kind: r.get("kind")?.as_str()?.to_string(),
                line: u(r, "line")? as u32,
                col: u(r, "col")? as u32,
                end_line: u(r, "end_line")? as u32,
                guard_line: u(r, "guard_line")? as u32,
                guard_col: u(r, "guard_col")? as u32,
                ph_operands: u(r, "ph")? as u32,
                reg_operands: u(r, "reg")? as u32,
                replays: u(r, "replays")?,
                fast_insns: u(r, "fast_insns")?,
                slow_visits: u(r, "slow_visits")?,
                slow_insns: u(r, "slow_insns")?,
                misses: u(r, "misses")?,
                miss_values: r
                    .get("miss_values")?
                    .as_arr()?
                    .iter()
                    .filter_map(|p| {
                        let p = p.as_arr()?;
                        Some((p.first()?.as_i64()?, p.get(1)?.as_u64()?))
                    })
                    .collect(),
            });
        }
        Some(ProfileDoc {
            label: v.get("label")?.as_str()?.to_string(),
            file: v.get("file")?.as_str()?.to_string(),
            sim,
            wall_ns: u(v, "wall_ns")?,
            rows,
            miss_value_overflow: u(v, "miss_value_overflow").unwrap_or(0),
        })
    }

    /// Parses a document from JSON text.
    pub fn from_json(text: &str) -> Result<ProfileDoc, ParseError> {
        let v = parse(text)?;
        ProfileDoc::from_value(&v).ok_or(ParseError {
            msg: "not a facile-prof/v1 profile document",
            at: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileDoc {
        ProfileDoc {
            label: "functional loop".into(),
            file: "functional.fac".into(),
            sim: SimStatsSnapshot {
                cycles: 10,
                insns: 30,
                fast_insns: 25,
                slow_insns: 5,
                fast_steps: 9,
                slow_steps: 1,
                misses: 3,
                recoveries: 3,
                actions_replayed: 18,
                ext_calls: 0,
            },
            wall_ns: 5_000,
            rows: vec![
                ActionRow {
                    action: 0,
                    kind: "plain".into(),
                    line: 4,
                    col: 3,
                    end_line: 4,
                    guard_line: 4,
                    guard_col: 3,
                    ph_operands: 2,
                    reg_operands: 0,
                    replays: 9,
                    fast_insns: 18,
                    slow_visits: 1,
                    slow_insns: 2,
                    misses: 0,
                    miss_values: Vec::new(),
                },
                ActionRow {
                    action: 1,
                    kind: "branch".into(),
                    line: 5,
                    col: 3,
                    end_line: 5,
                    guard_line: 5,
                    guard_col: 7,
                    ph_operands: 1,
                    reg_operands: 1,
                    replays: 9,
                    fast_insns: 7,
                    slow_visits: 1,
                    slow_insns: 3,
                    misses: 3,
                    miss_values: vec![(1, 2), (-4, 1)],
                },
            ],
            miss_value_overflow: 0,
        }
    }

    #[test]
    fn totals_match_sim_counters() {
        let p = sample();
        assert_eq!(p.attributed_insns(), p.sim.insns);
        assert_eq!(p.attributed_misses(), p.sim.misses);
    }

    #[test]
    fn document_round_trips() {
        let p = sample();
        let back = ProfileDoc::from_json(&p.to_json()).unwrap();
        assert_eq!(back.label, p.label);
        assert_eq!(back.file, p.file);
        assert_eq!(back.sim, p.sim);
        assert_eq!(back.rows, p.rows);
    }

    #[test]
    fn flat_lines_sorted_by_cost() {
        let flat = sample().flat_lines();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].line, 4);
        assert_eq!(flat[0].insns, 20);
        assert_eq!(flat[1].line, 5);
        assert_eq!(flat[1].misses, 3);
    }

    #[test]
    fn folded_stacks_are_flamegraph_shaped() {
        let folded = sample().folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "functional loop;plain;functional.fac:4 20");
        assert_eq!(lines[1], "functional loop;branch;functional.fac:5 10");
        for l in &lines {
            // frame;frame;frame <space> count
            let (stack, count) = l.rsplit_once(' ').unwrap();
            assert!(stack.split(';').count() >= 3, "{l}");
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn top_misses_ranks_and_filters() {
        let p = sample();
        let top = p.top_misses(5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].action, 1);
        assert_eq!(top[0].miss_values, vec![(1, 2), (-4, 1)]);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample().to_json().replace(PROF_SCHEMA, "facile-prof/v0");
        assert!(ProfileDoc::from_json(&json).is_err());
    }

    #[test]
    fn merge_preserves_the_exactness_invariants() {
        let mut a = sample();
        let mut b = sample();
        // Give the second lane different costs on the same sites.
        b.sim.insns = 60;
        b.sim.fast_insns = 40;
        b.sim.slow_insns = 20;
        b.sim.misses = 1;
        b.rows[0].fast_insns = 30;
        b.rows[0].slow_insns = 10;
        b.rows[1].fast_insns = 10;
        b.rows[1].slow_insns = 10;
        b.rows[1].misses = 1;
        b.rows[1].miss_values = vec![(1, 1)];
        assert_eq!(b.attributed_insns(), b.sim.insns);
        a.merge(&b).unwrap();
        assert_eq!(a.sim.insns, 90);
        assert_eq!(a.attributed_insns(), a.sim.insns, "Σinsns == sim.insns survives");
        assert_eq!(a.attributed_misses(), a.sim.misses, "Σmisses == sim.misses survives");
        assert_eq!(a.rows[1].miss_values, vec![(1, 3), (-4, 1)]);
        assert_eq!(a.wall_ns, 5_000);
    }

    #[test]
    fn merge_rejects_mismatched_action_tables() {
        let mut a = sample();
        let mut b = sample();
        b.rows.pop();
        assert!(a.merge(&b).unwrap_err().contains("rows"));
        let mut c = sample();
        c.rows[1].guard_line = 99;
        let before = a.rows.clone();
        assert!(a.merge(&c).unwrap_err().contains("different sites"));
        assert_eq!(a.rows, before, "failed merge leaves the document unchanged");
    }
}
