//! Generated inputs and output scoring shared by the workloads.
//!
//! Every input comes from the repository's own dataset generators and
//! the run's `--seed`; the program under test only ever sees the files
//! and request bodies built here.

use renuver_data::{AttrType, Relation, Schema, Tuple, Value};
use renuver_datasets::restaurant;
use renuver_eval::Scores;
use renuver_obs::json::{self, write_f64, write_str};
use renuver_rulekit::RuleSet;

use crate::http;
use crate::stats::{derive, Rng};

/// Seed of every base relation. The run's `--seed` picks holes, held-out
/// tuples and request mixes on top of these relations; the relations
/// themselves stay fixed so each workload's model (RFD and key counts,
/// and so the cost of every op) is the same in every run.
pub const DATA_SEED: u64 = 42;

/// Rows of the serving model and of the held-out pool the request
/// bodies draw from.
pub const MODEL_ROWS: usize = 5000;
pub const HOLDOUT_ROWS: usize = 1000;

/// Rule-validated imputation counts, pooled over a run.
#[derive(Default, Clone, Copy)]
pub struct Score {
    missing: usize,
    imputed: usize,
    correct: usize,
}

impl Score {
    /// Scores one held-out cell: `got` is what the program filled in.
    pub fn cell(&mut self, rules: &RuleSet, attr: &str, got: &Value, expected: &Value) {
        self.missing += 1;
        if !got.is_null() {
            self.imputed += 1;
            if rules.validate(attr, &got.render(), &expected.render()) {
                self.correct += 1;
            }
        }
    }

    pub fn add(&mut self, other: Scores) {
        self.missing += other.missing;
        self.imputed += other.imputed;
        self.correct += other.correct;
    }

    /// Held-out cells scored.
    pub fn cells(&self) -> usize {
        self.missing
    }

    pub fn f1(&self) -> f64 {
        Scores::from_counts(self.missing, self.imputed, self.correct).f1
    }
}

/// One generated serving request: its wire bytes, the tuples it carries,
/// and the truth behind each hole as `(tuple, attr, value)`.
pub struct Op {
    pub bytes: Vec<u8>,
    pub tuples: Vec<Tuple>,
    pub holes: Vec<(usize, usize, Value)>,
}

/// The serving model relation and the held-out tuples requests draw from.
pub struct ServeData {
    pub model: Relation,
    pub pool: Vec<Tuple>,
}

impl ServeData {
    /// The first [`MODEL_ROWS`] rows of a seeded Restaurant relation are
    /// the model; the next [`HOLDOUT_ROWS`] are held out.
    pub fn restaurant() -> ServeData {
        let full = restaurant::generate_n(MODEL_ROWS + HOLDOUT_ROWS, DATA_SEED);
        let tuples: Vec<Tuple> = full.tuples().cloned().collect();
        let (model, pool) = tuples.split_at(MODEL_ROWS);
        ServeData {
            model: Relation::new(full.schema().clone(), model.to_vec())
                .expect("a prefix of a valid relation is valid"),
            pool: pool.to_vec(),
        }
    }

    /// A request of `count` seeded held-out tuples, each with one hole.
    /// Holes take the attributes in turn from `first` (mod arity), so an
    /// op list built with consecutive `first`s holds every attribute in
    /// the same proportion and only the tuples vary with the seed. With
    /// `shared` every hole sits in attribute `first`, so the batch's
    /// cells can share verification work.
    pub fn op(&self, path: &str, rng: &mut Rng, count: usize, first: usize, shared: bool) -> Op {
        let arity = self.model.arity();
        let mut tuples = Vec::with_capacity(count);
        let mut holes = Vec::with_capacity(count);
        for i in 0..count {
            let mut tuple = self.pool[rng.below(self.pool.len())].clone();
            let attr = if shared {
                first % arity
            } else {
                (first + i) % arity
            };
            let truth = std::mem::replace(&mut tuple[attr], Value::Null);
            if !truth.is_null() {
                holes.push((i, attr, truth));
            }
            tuples.push(tuple);
        }
        let bytes = http::post_json(path, &body(&tuples));
        Op {
            bytes,
            tuples,
            holes,
        }
    }
}

/// The `{"tuples": [...]}` request document for `tuples`.
pub fn body(tuples: &[Tuple]) -> String {
    let mut out = String::from("{\"tuples\":[");
    for (i, tuple) in tuples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in tuple.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Null => out.push_str("null"),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Float(f) => write_f64(&mut out, *f),
                Value::Text(s) => write_str(&mut out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The imputed tuples of an `/v1/impute` or `/v1/ingest` response.
pub fn answer(schema: &Schema, body: &[u8]) -> Result<Vec<Tuple>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = json::parse(text)?;
    let rows = doc
        .get("tuples")
        .and_then(|t| t.as_array())
        .ok_or("response has no tuples array")?;
    rows.iter()
        .map(|row| {
            let cells = row.as_array().ok_or("response tuple is not an array")?;
            if cells.len() != schema.arity() {
                return Err(format!("response tuple has {} values", cells.len()));
            }
            cells
                .iter()
                .enumerate()
                .map(|(attr, cell)| value(schema.ty(attr), cell))
                .collect()
        })
        .collect()
}

fn value(ty: AttrType, cell: &json::Value) -> Result<Value, String> {
    Ok(match (cell, ty) {
        (json::Value::Null, _) => Value::Null,
        (json::Value::Num(n), AttrType::Int) if n.fract() == 0.0 => Value::Int(*n as i64),
        (json::Value::Num(n), AttrType::Float) => Value::Float(*n),
        (json::Value::Str(s), AttrType::Text) => Value::Text(s.clone()),
        (json::Value::Bool(b), AttrType::Bool) => Value::Bool(*b),
        (other, ty) => return Err(format!("response value {other:?} does not fit {ty:?}")),
    })
}

/// Checks that `answer` holds one tuple per request tuple and leaves
/// every known request cell unchanged.
pub fn check_answer(request: &[Tuple], answer: &[Tuple]) -> Result<(), String> {
    if request.len() != answer.len() {
        return Err(format!(
            "{} answers for {} tuples",
            answer.len(),
            request.len()
        ));
    }
    for (i, (asked, got)) in request.iter().zip(answer).enumerate() {
        for (attr, (a, g)) in asked.iter().zip(got).enumerate() {
            if !a.is_null() && a.render() != g.render() {
                return Err(format!(
                    "tuple {i} attribute {attr} changed from {a:?} to {g:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Scores the holes of `op` against the program's answer.
pub fn score_op(score: &mut Score, rules: &RuleSet, schema: &Schema, op: &Op, answer: &[Tuple]) {
    for (i, attr, truth) in &op.holes {
        score.cell(rules, schema.name(*attr), &answer[*i][*attr], truth);
    }
}

/// A per-purpose generator for run `seed`.
pub fn rng(seed: u64, salt: u64) -> Rng {
    Rng::new(derive(seed, salt, 0))
}
