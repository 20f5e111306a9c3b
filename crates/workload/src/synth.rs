//! Seeded random-program synthesis for property-based testing.
//!
//! Generates structurally valid objects exercising the whole statement
//! grammar the analysis must handle: nested sync blocks with every
//! parameter class, branches, bounded loops, local/virtual calls to an
//! acyclic helper hierarchy, nested invocations, and state updates.
//! `wait`/`notify` are deliberately excluded — a random waiter with no
//! matching notifier deadlocks by construction; condition variables are
//! covered by the handwritten [`crate::buffer`] workload instead.

use dmt_lang::ast::{ArgExpr, CondExpr, CountExpr, DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{MethodIdx, ObjectBuilder, RequestArgs, Value};
use dmt_sim::SplitMix64;

/// Shape knobs for the generator.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    pub n_public_methods: usize,
    pub n_helpers: usize,
    pub max_stmts_per_block: usize,
    pub max_depth: usize,
    pub n_mutex_pool: u32,
    pub n_cells: u32,
    pub n_fields: u32,
    /// Fixed arity for every method (arguments double as flags, mutex
    /// indices, and integers).
    pub arity: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_public_methods: 2,
            n_helpers: 2,
            max_stmts_per_block: 4,
            max_depth: 3,
            n_mutex_pool: 6,
            n_cells: 4,
            n_fields: 2,
            arity: 4,
        }
    }
}

/// Generates a valid object from a seed. Equal seeds give equal objects.
pub fn random_object(seed: u64, cfg: &SynthConfig) -> ObjectImpl {
    let mut rng = SplitMix64::new(seed);
    let mut ob = ObjectBuilder::new(format!("Synth{seed}"));
    // Cell layout: see `Gen::guarded_update`.
    ob.cells((4 + cfg.n_mutex_pool).max(cfg.n_cells));
    let fields: Vec<_> = (0..cfg.n_fields).map(|_| ob.field()).collect();

    // Helpers first (callable targets); helper k may call helpers < k,
    // keeping the call graph acyclic.
    let mut callees: Vec<MethodIdx> = Vec::new();
    for h in 0..cfg.n_helpers {
        let mut m = ob.method(format!("helper{h}"), cfg.arity).private();
        let mut g = Gen {
            rng: rng.split(1000 + h as u64),
            cfg,
            fields: &fields,
            callees: &callees.clone(),
        };
        g.block(&mut m, cfg.max_depth);
        let idx = m.done();
        callees.push(idx);
    }
    for p in 0..cfg.n_public_methods {
        let mut m = ob.method(format!("start{p}"), cfg.arity);
        let mut g = Gen {
            rng: rng.split(2000 + p as u64),
            cfg,
            fields: &fields,
            callees: &callees,
        };
        g.block(&mut m, cfg.max_depth);
        m.done();
    }
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

struct Gen<'a> {
    rng: SplitMix64,
    cfg: &'a SynthConfig,
    fields: &'a [dmt_lang::FieldId],
    callees: &'a [MethodIdx],
}

impl Gen<'_> {
    /// Argument slots are partitioned: the first half carries monitor
    /// references, the second half carries flags/integers — so the
    /// generated programs never read an integer where a monitor is
    /// required.
    fn mutex_arg(&mut self) -> usize {
        self.rng.next_below((self.cfg.arity / 2).max(1) as u64) as usize
    }

    fn scalar_arg(&mut self) -> usize {
        let half = (self.cfg.arity / 2).max(1);
        half + self.rng.next_below((self.cfg.arity - half).max(1) as u64) as usize
    }

    fn mutex_expr(&mut self) -> MutexExpr {
        match self.rng.next_below(5) {
            0 => MutexExpr::This,
            1 => MutexExpr::Konst(dmt_lang::MutexId::new(500 + self.rng.next_below(3) as u32)),
            2 => MutexExpr::Arg(self.mutex_arg()),
            3 => {
                let index_arg = self.scalar_arg();
                MutexExpr::Pool {
                    base: 0,
                    len: self.cfg.n_mutex_pool,
                    index_arg,
                }
            }
            _ => MutexExpr::Field(*self.rng.choose(self.fields).expect("fields exist")),
        }
    }

    fn cond(&mut self) -> CondExpr {
        match self.rng.next_below(3) {
            0 => CondExpr::ArgFlag(self.scalar_arg()),
            1 => CondExpr::ArgIntLt(self.scalar_arg(), 2),
            _ => CondExpr::CellLt(
                dmt_lang::CellId::new(self.rng.next_below(self.cfg.n_cells as u64) as u32),
                3,
            ),
        }
    }

    /// Cell layout (one guarding monitor per cell, paper §2):
    /// cell 0 ← `this` and all fields (fields alias `this` here);
    /// cells 1..4 ← the three `Konst(500..)` monitors;
    /// cells 4.. ← pool monitor k guards cell 4+k (also for `Arg`
    /// parameters: argument monitors are pool members).
    fn guarded_update(
        &mut self,
        param: &MutexExpr,
        k: i64,
    ) -> impl Fn(&mut dmt_lang::MethodBuilder<'_>) + 'static {
        let pool = self.cfg.n_mutex_pool;
        let param = param.clone();
        move |b: &mut dmt_lang::MethodBuilder<'_>| match &param {
            MutexExpr::This | MutexExpr::Field(_) => {
                let c = dmt_lang::CellId::new(0);
                b.update(c, IntExpr::Cell(c));
                b.update(c, IntExpr::Lit(k));
            }
            MutexExpr::Konst(m) => {
                let c = dmt_lang::CellId::new(1 + (m.0 - 500) % 3);
                b.update(c, IntExpr::Cell(c));
                b.update(c, IntExpr::Lit(k));
            }
            MutexExpr::Arg(i) => {
                // args carry pool monitors; the monitor id is the pool
                // index, so the indexed update lands on its cell.
                b.update_indexed(4, pool, *i, IntExpr::Lit(k));
            }
            MutexExpr::Pool { index_arg, .. } => {
                b.update_indexed(4, pool, *index_arg, IntExpr::Lit(k));
            }
            _ => {}
        }
    }

    fn block(&mut self, m: &mut dmt_lang::MethodBuilder<'_>, depth: usize) {
        self.block_in(m, depth, false)
    }

    fn block_in(&mut self, m: &mut dmt_lang::MethodBuilder<'_>, depth: usize, in_sync: bool) {
        let n = 1 + self.rng.next_below(self.cfg.max_stmts_per_block as u64) as usize;
        for _ in 0..n {
            self.stmt(m, depth, in_sync);
        }
    }

    fn stmt(&mut self, m: &mut dmt_lang::MethodBuilder<'_>, depth: usize, in_sync: bool) {
        // Inside a monitor, no further acquisitions and no calls (callees
        // may acquire): generated programs are free of hold-and-wait, so
        // any stall the engine reports is a scheduler bug, not an
        // accidental lock-ordering deadlock. (The handwritten bank
        // workload covers *ordered* nested locking.)
        let choices: u64 = if depth == 0 {
            if in_sync {
                3
            } else {
                4
            }
        } else if in_sync {
            6
        } else {
            8
        };
        match self.rng.next_below(choices) {
            0 => {
                m.compute(DurExpr::micros(10 + self.rng.next_below(200)));
            }
            1 => {
                if in_sync {
                    m.compute(DurExpr::micros(30));
                } else {
                    // Reads/writes of shared state may only happen under
                    // the guarding monitor; a bare update here would be
                    // the improper synchronisation the paper's §2
                    // assumption rules out (and the checker catches).
                    m.compute(DurExpr::micros(10 + self.rng.next_below(100)));
                }
            }
            2 => {
                if in_sync {
                    // Suspending inside a critical section is out of scope
                    // (see the PDS module docs); substitute computation.
                    m.compute(DurExpr::micros(100));
                } else {
                    m.nested(dmt_lang::ServiceId::new(0), DurExpr::micros(500));
                }
            }
            3 => {
                if !self.callees.is_empty() && !in_sync {
                    let target = *self.rng.choose(self.callees).expect("nonempty");
                    let args: Vec<ArgExpr> = (0..self.cfg.arity).map(ArgExpr::CallerArg).collect();
                    if self.rng.next_bool(0.3) && self.callees.len() >= 2 {
                        let mut cands = self.callees.to_vec();
                        self.rng.shuffle(&mut cands);
                        cands.truncate(2);
                        let sel = self.scalar_arg();
                        m.virtual_call(cands, IntExpr::Arg(sel), args);
                    } else {
                        m.call(target, args);
                    }
                } else {
                    m.compute(DurExpr::micros(20));
                }
            }
            4 => {
                if in_sync {
                    // Already holding a monitor: no further acquisition.
                    m.compute(DurExpr::micros(5 + self.rng.next_below(50)));
                } else {
                    // Lock → order-sensitive update of the cell this
                    // monitor guards → unlock (the §2 discipline: each
                    // cell has exactly one guarding monitor).
                    let param = self.mutex_expr();
                    let k = self.rng.next_below(5) as i64 + 1;
                    let guarded = self.guarded_update(&param, k);
                    m.sync(param, move |b| guarded(b));
                }
            }
            5 => {
                // if/else (kept available inside monitors too).
                let cond = self.cond();
                let d = depth - 1;
                let mut me = Gen {
                    rng: self.rng.split(11),
                    cfg: self.cfg,
                    fields: self.fields,
                    callees: self.callees,
                };
                let mut el = Gen {
                    rng: self.rng.split(12),
                    cfg: self.cfg,
                    fields: self.fields,
                    callees: self.callees,
                };
                m.if_else(
                    cond,
                    |b| me.block_in(b, d, in_sync),
                    |b| el.block_in(b, d, in_sync),
                );
            }
            6 => {
                let count = CountExpr::Lit(1 + self.rng.next_below(3) as u32);
                let d = depth - 1;
                let mut inner = Gen {
                    rng: self.rng.split(13),
                    cfg: self.cfg,
                    fields: self.fields,
                    callees: self.callees,
                };
                let is = in_sync;
                m.for_loop(count, |b| inner.block_in(b, d, is));
            }
            _ => {
                // Sync block (only when not already holding a monitor).
                let param = self.mutex_expr();
                let d = depth - 1;
                let mut inner = Gen {
                    rng: self.rng.split(14),
                    cfg: self.cfg,
                    fields: self.fields,
                    callees: self.callees,
                };
                m.sync(param, |b| inner.block_in(b, d, true));
            }
        }
    }
}

/// Random arguments matching [`SynthConfig::arity`] and its slot
/// partition: monitor references first, scalars second.
pub fn random_args(rng: &mut SplitMix64, cfg: &SynthConfig) -> RequestArgs {
    let half = (cfg.arity / 2).max(1);
    (0..cfg.arity)
        .map(|i| {
            if i < half {
                Value::Mutex(dmt_lang::MutexId::new(
                    rng.next_below(cfg.n_mutex_pool as u64) as u32,
                ))
            } else if rng.next_bool(0.5) {
                Value::Bool(rng.next_bool(0.5))
            } else {
                Value::Int(rng.next_below(8) as i64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_objects_are_valid_and_deterministic() {
        let cfg = SynthConfig::default();
        for seed in 0..50 {
            let a = random_object(seed, &cfg);
            assert!(a.validate().is_empty(), "seed {seed}: {:?}", a.validate());
            let b = random_object(seed, &cfg);
            assert_eq!(a, b, "seed {seed} not reproducible");
        }
    }

    #[test]
    fn generated_objects_compile_and_transform() {
        let cfg = SynthConfig::default();
        for seed in 0..30 {
            let obj = random_object(seed, &cfg);
            let _ = dmt_lang::compile::compile(&obj);
            let t = dmt_analysis::transform(&obj);
            assert!(t.validate().is_empty(), "seed {seed} transform invalid");
            assert_eq!(
                obj.all_sync_ids(),
                t.all_sync_ids(),
                "seed {seed} syncids changed"
            );
            let _ = dmt_lang::compile::compile(&t);
            let _ = dmt_analysis::build_lock_table(&obj);
        }
    }

    #[test]
    fn objects_vary_across_seeds() {
        let cfg = SynthConfig::default();
        let a = random_object(1, &cfg);
        let b = random_object(2, &cfg);
        assert_ne!(a, b);
    }
}
