//! The metered core under both CBScript engines.
//!
//! Executing a script does two things at once: it computes the real result
//! (loops run, arrays mutate, strings build) and it records the abstract
//! operations an engine of its class performs — dispatch work per step,
//! boxed-value memory traffic, allocator churn, and the effects of I/O
//! builtins — into a [`confbench_types::OpTrace`] that a simulated VM then
//! charges for. Everything about the second job that does not depend on how
//! an engine walks its code lives here, once: the trace, the four batched
//! tallies and their flush, the step budget and per-step dispatch charge,
//! the call-depth guard, the `result`/`log` sinks, and the value primitives
//! whose cost is part of their semantics. The tree-walker and the stack VM
//! each own one [`Meter`] and add only what differs between them: scopes
//! against slots and a stack, and the frame each charges for a call.
//!
//! A meter has `N` lanes, one per [`JitMode`] it charges for. Two modes of
//! one engine differ only in what a step costs, so one execution can record
//! both traces: each lane owns its trace, its compile flag and its pending
//! dispatch charge, and flushes when *its own* charge crosses
//! [`FLUSH_EVERY`], exactly as a one-lane meter would; the steps, the call
//! depth, the `result`/`log` sinks and the float/memory/log tallies are the
//! run's and shared, each lane remembering how much of them it has
//! emitted. So every lane's trace is the trace a run of its mode alone
//! records. The tree-walker and a single-mode [`crate::StackVm::run`] are
//! the one-lane case.

use std::rc::Rc;

use confbench_types::OpTrace;

use crate::ast::{BinOp, UnOp};
use crate::bytecode::JitMode;
use crate::error::ScriptError;
use crate::value::Value;

/// What a finished script produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Value passed to the `result(..)` builtin, rendered; empty if unset.
    pub result: String,
    /// Concatenated `log(..)` output.
    pub log: String,
    /// The recorded operation trace.
    pub trace: OpTrace,
    /// Total engine steps (AST nodes evaluated or instructions executed).
    pub steps: u64,
}

/// Flush batched counters into the trace at this granularity.
const FLUSH_EVERY: u64 = 1 << 16;

/// Maximum script call depth (guards the host stack against runaway
/// recursion in uploaded functions).
const MAX_CALL_DEPTH: u32 = 150;

/// The script-visible `ARGS` array.
pub(crate) fn args_array(args: &[String]) -> Value {
    Value::array(args.iter().map(|s| Value::Str(Rc::from(s.as_str()))).collect())
}

/// Float ops, boxed-value bytes and log bytes: a run's cumulative tallies,
/// or what of them a lane has emitted.
#[derive(Debug, Clone, Copy, Default)]
struct Tallies {
    float: u64,
    mem: u64,
    log: u64,
}

/// What one [`JitMode`] owns of a run; see the module docs.
struct Lane {
    jit: JitMode,
    trace: OpTrace,
    compiled: bool,
    cpu_pending: u64,
    emitted: Tallies,
}

impl Lane {
    fn new(jit: JitMode) -> Self {
        Lane {
            jit,
            trace: OpTrace::new(),
            compiled: false,
            cpu_pending: 0,
            emitted: Tallies::default(),
        }
    }

    /// Charges step number `steps` at this lane's dispatch cost.
    #[inline]
    fn charge(&mut self, steps: u64, tallies: &Tallies) {
        let cost = match self.jit {
            JitMode::Interpret { dispatch_cost } => dispatch_cost,
            JitMode::Tracing { cold_cost, threshold, compile_cost, hot_cost } => {
                if steps == threshold && !self.compiled {
                    self.compiled = true;
                    self.cpu_pending += compile_cost;
                }
                if self.compiled {
                    hot_cost
                } else {
                    cold_cost
                }
            }
        };
        self.cpu_pending += cost;
        if self.cpu_pending >= FLUSH_EVERY {
            self.flush(tallies);
        }
    }

    /// Emits the pending dispatch charge, then whatever of the run's
    /// `tallies` this lane has not emitted yet.
    fn flush(&mut self, tallies: &Tallies) {
        if self.cpu_pending > 0 {
            self.trace.cpu(self.cpu_pending);
            self.cpu_pending = 0;
        }
        if tallies.float > self.emitted.float {
            self.trace.float(tallies.float - self.emitted.float);
        }
        if tallies.mem > self.emitted.mem {
            // Boxed-value heap traffic: reads and writes interleave; model
            // as one combined run over a recycled region.
            self.trace.mem_read(tallies.mem - self.emitted.mem);
        }
        if tallies.log > self.emitted.log {
            self.trace.log(tallies.log - self.emitted.log);
        }
        self.emitted = *tallies;
    }
}

/// One script execution's metering state, for `N` modes at once; see the
/// module docs.
pub(crate) struct Meter<const N: usize> {
    lanes: [Lane; N],
    tallies: Tallies,
    result: String,
    log: String,
    steps: u64,
    step_limit: u64,
    call_depth: u32,
}

impl<const N: usize> Meter<N> {
    /// A meter charging each of `jits`' dispatch cost per step, for at most
    /// `step_limit` steps. A fixed per-step cost is [`JitMode::Interpret`].
    pub(crate) fn new(jits: [JitMode; N], step_limit: u64) -> Self {
        Meter {
            lanes: jits.map(Lane::new),
            tallies: Tallies::default(),
            result: String::new(),
            log: String::new(),
            steps: 0,
            step_limit,
            call_depth: 0,
        }
    }

    /// Counts one step (an AST node or a bytecode instruction) against the
    /// budget, then charges its dispatch cost in every lane.
    ///
    /// Inlined into the engines' loops, where it lived when each had its
    /// own copy: as an out-of-line call per step the stack VM ran 3–5 %
    /// slower over the Fig. 6 scripts.
    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), ScriptError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ScriptError::StepLimitExceeded(self.step_limit));
        }
        for lane in &mut self.lanes {
            lane.charge(self.steps, &self.tallies);
        }
        Ok(())
    }

    /// Appends an op whose position matters (I/O, syscalls, explicit
    /// memory) to every lane's trace, each lane's tallies emitted ahead of
    /// it.
    pub(crate) fn ordered(&mut self, op: impl Fn(&mut OpTrace)) {
        for lane in &mut self.lanes {
            lane.flush(&self.tallies);
            op(&mut lane.trace);
        }
    }

    /// Records an allocation at once, ahead of every lane's pending
    /// tallies.
    fn alloc(&mut self, bytes: u64) {
        for lane in &mut self.lanes {
            lane.trace.alloc(bytes);
        }
    }

    pub(crate) fn add_mem(&mut self, bytes: u64) {
        self.tallies.mem += bytes;
    }

    pub(crate) fn add_float(&mut self, ops: u64) {
        self.tallies.float += ops;
    }

    pub(crate) fn add_log(&mut self, text: &str) {
        self.log.push_str(text);
        self.log.push('\n');
        self.tallies.log += text.len() as u64 + 1;
        for lane in &mut self.lanes {
            if self.tallies.log - lane.emitted.log >= FLUSH_EVERY {
                lane.flush(&self.tallies);
            }
        }
    }

    pub(crate) fn set_result(&mut self, value: String) {
        self.result = value;
    }

    /// Enters a script function. Depth is bounded so runaway recursion in
    /// an uploaded script errors out instead of overflowing the host's
    /// stack. Pair with [`Meter::exit_call`] unless this returned an error.
    pub(crate) fn enter_call(&mut self) -> Result<(), ScriptError> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(ScriptError::Runtime(format!("call depth exceeded ({MAX_CALL_DEPTH})")));
        }
        self.call_depth += 1;
        Ok(())
    }

    pub(crate) fn exit_call(&mut self) {
        self.call_depth -= 1;
    }

    /// Emits what each lane still has pending and hands over one outcome
    /// per lane, in the order of the modes the meter was made with.
    pub(crate) fn finish(self) -> [ScriptOutcome; N] {
        let Meter { lanes, tallies, result, log, steps, .. } = self;
        lanes.map(|mut lane| {
            lane.flush(&tallies);
            ScriptOutcome { result: result.clone(), log: log.clone(), trace: lane.trace, steps }
        })
    }

    /// Boxes `items` as a new array: one allocation, one slot write each.
    pub(crate) fn new_array(&mut self, items: Vec<Value>) -> Value {
        self.alloc(16 * items.len().max(1) as u64);
        self.tallies.mem += 16 * items.len() as u64;
        Value::array(items)
    }

    /// `target[index]`: an array element, or a string's byte as an int.
    pub(crate) fn index(&mut self, target: &Value, index: &Value) -> Result<Value, ScriptError> {
        let i = as_index(index)?;
        self.tallies.mem += 24; // bounds check + boxed read
        match target {
            Value::Array(items) => {
                let items = items.borrow();
                items.get(i).cloned().ok_or_else(|| {
                    ScriptError::Runtime(format!("index {i} out of range (len {})", items.len()))
                })
            }
            Value::Str(s) => s
                .as_bytes()
                .get(i)
                .map(|&b| Value::Int(b as i64))
                .ok_or_else(|| ScriptError::Runtime(format!("string index {i} out of range"))),
            other => Err(ScriptError::Runtime(format!("cannot index {}", other.type_name()))),
        }
    }

    /// `target[index] = value` on an array.
    pub(crate) fn index_set(
        &mut self,
        target: &Value,
        index: &Value,
        value: Value,
    ) -> Result<(), ScriptError> {
        let i = as_index(index)?;
        self.tallies.mem += 24; // bounds check + boxed write
        match target {
            Value::Array(items) => {
                let mut items = items.borrow_mut();
                let len = items.len();
                let slot = items.get_mut(i).ok_or_else(|| {
                    ScriptError::Runtime(format!("index {i} out of range (len {len})"))
                })?;
                *slot = value;
                Ok(())
            }
            other => Err(ScriptError::Runtime(format!(
                "cannot index {} for assignment",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn unary(&mut self, op: UnOp, v: Value) -> Result<Value, ScriptError> {
        match (op, v) {
            (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(-n)),
            (UnOp::Neg, Value::Float(x)) => {
                self.tallies.float += 1;
                Ok(Value::Float(-x))
            }
            (UnOp::Not, v) => Ok(Value::Bool(!v.is_truthy())),
            (UnOp::Neg, v) => Err(ScriptError::Runtime(format!("cannot negate {}", v.type_name()))),
        }
    }

    /// Every binary operator but the short-circuit pair, which is control
    /// flow and so each engine's own.
    pub(crate) fn binary(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, ScriptError> {
        use BinOp::*;
        use Value::*;
        match op {
            Add => match (l, r) {
                (Int(a), Int(b)) => Ok(Int(a.wrapping_add(b))),
                (a @ Str(_), b) | (a, b @ Str(_)) => {
                    let s = format!("{a}{b}");
                    self.alloc(s.len() as u64);
                    self.tallies.mem += s.len() as u64;
                    Ok(Str(s.into()))
                }
                (a, b) => self.float_bin(a, b, |x, y| x + y, "+"),
            },
            Sub => match (l, r) {
                (Int(a), Int(b)) => Ok(Int(a.wrapping_sub(b))),
                (a, b) => self.float_bin(a, b, |x, y| x - y, "-"),
            },
            Mul => match (l, r) {
                (Int(a), Int(b)) => Ok(Int(a.wrapping_mul(b))),
                (a, b) => self.float_bin(a, b, |x, y| x * y, "*"),
            },
            Div => match (l, r) {
                (Int(a), Int(b)) => {
                    if b == 0 {
                        Err(ScriptError::Runtime("integer division by zero".into()))
                    } else {
                        Ok(Int(a / b))
                    }
                }
                (a, b) => self.float_bin(a, b, |x, y| x / y, "/"),
            },
            Rem => match (l, r) {
                (Int(a), Int(b)) => {
                    if b == 0 {
                        Err(ScriptError::Runtime("integer modulo by zero".into()))
                    } else {
                        Ok(Int(a % b))
                    }
                }
                (a, b) => self.float_bin(a, b, |x, y| x % y, "%"),
            },
            Eq => Ok(Bool(l == r)),
            Ne => Ok(Bool(l != r)),
            Lt | Le | Gt | Ge => {
                let ord = match (&l, &r) {
                    (Int(a), Int(b)) => a.partial_cmp(b),
                    (Str(a), Str(b)) => a.partial_cmp(b),
                    (a, b) => match (a.as_f64(), b.as_f64()) {
                        (Some(x), Some(y)) => x.partial_cmp(&y),
                        _ => None,
                    },
                };
                let ord = ord.ok_or_else(|| {
                    ScriptError::Runtime(format!(
                        "cannot compare {} and {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                Ok(Bool(match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                }))
            }
            And | Or => Err(ScriptError::Runtime("unlowered logical operator".into())),
        }
    }

    fn float_bin(
        &mut self,
        l: Value,
        r: Value,
        f: impl Fn(f64, f64) -> f64,
        op: &str,
    ) -> Result<Value, ScriptError> {
        match (l.as_f64(), r.as_f64()) {
            (Some(x), Some(y)) => {
                self.tallies.float += 1;
                Ok(Value::Float(f(x, y)))
            }
            _ => Err(ScriptError::Runtime(format!(
                "cannot apply {op} to {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    }
}

fn as_index(index: &Value) -> Result<usize, ScriptError> {
    match index {
        Value::Int(n) if *n >= 0 => Ok(*n as usize),
        other => Err(ScriptError::Runtime(format!("bad index {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use confbench_types::Op;

    use super::*;

    fn meter() -> Meter<1> {
        Meter::new([JitMode::Interpret { dispatch_cost: 14 }], 1_000)
    }

    /// What is in the first lane's trace so far, pending tallies not
    /// included.
    fn emitted<const N: usize>(meter: &Meter<N>) -> Vec<Op> {
        meter.lanes[0].trace.iter().copied().collect()
    }

    /// The whole trace of a finished one-lane run.
    fn ops(meter: Meter<1>) -> Vec<Op> {
        let [outcome] = meter.finish();
        outcome.trace.iter().copied().collect()
    }

    fn err(result: Result<Value, ScriptError>) -> String {
        match result {
            Err(ScriptError::Runtime(message)) => message,
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }

    #[test]
    fn flush_emits_cpu_float_mem_log_in_that_order() {
        let mut m = meter();
        m.add_log("hello");
        m.add_mem(40);
        m.add_float(3);
        m.step().unwrap();
        let ops = ops(m);
        assert!(
            matches!(
                ops[..],
                [Op::Cpu(14), Op::Float(3), Op::MemRead { bytes: 40, .. }, Op::Log(6)]
            ),
            "{ops:?}"
        );
    }

    #[test]
    fn zero_tallies_emit_nothing() {
        assert_eq!(ops(meter()), []);
        let mut m = meter();
        m.add_mem(8);
        m.ordered(|t| t.io_write(512));
        let ops = ops(m);
        assert!(matches!(ops[..], [Op::MemRead { bytes: 8, .. }, Op::IoWrite(512)]), "{ops:?}");
    }

    #[test]
    fn step_flushes_cpu_at_the_threshold_and_stops_at_the_limit() {
        let mut m = Meter::new([JitMode::Interpret { dispatch_cost: FLUSH_EVERY / 2 }], 3);
        m.step().unwrap();
        assert!(emitted(&m).is_empty());
        m.step().unwrap();
        assert_eq!(emitted(&m), [Op::Cpu(FLUSH_EVERY)]);
        m.step().unwrap();
        assert_eq!(m.step(), Err(ScriptError::StepLimitExceeded(3)));
    }

    #[test]
    fn tracing_mode_charges_the_compile_once_then_runs_hot() {
        let jit = JitMode::Tracing { cold_cost: 8, threshold: 3, compile_cost: 100, hot_cost: 2 };
        let mut m = Meter::new([jit], 1_000);
        for _ in 0..5 {
            m.step().unwrap();
        }
        assert_eq!(ops(m), [Op::Cpu(8 + 8 + 100 + 2 + 2 + 2)]);
    }

    #[test]
    fn add_log_flushes_at_flush_every() {
        let mut m = meter();
        let line = "x".repeat(FLUSH_EVERY as usize - 2);
        m.add_log(&line);
        assert!(emitted(&m).is_empty(), "one byte short of the threshold");
        m.add_log("");
        assert_eq!(emitted(&m), [Op::Log(FLUSH_EVERY)]);
        let [outcome] = m.finish();
        assert_eq!(outcome.trace.len(), 1, "nothing left to flush");
        assert_eq!(outcome.log.len() as u64, FLUSH_EVERY);
    }

    #[test]
    fn binary_error_strings() {
        let mut m = meter();
        assert_eq!(
            err(m.binary(BinOp::Div, Value::Int(1), Value::Int(0))),
            "integer division by zero"
        );
        assert_eq!(
            err(m.binary(BinOp::Rem, Value::Int(1), Value::Int(0))),
            "integer modulo by zero"
        );
        assert_eq!(
            err(m.binary(BinOp::Lt, Value::Int(1), Value::Str("a".into()))),
            "cannot compare int and string"
        );
        assert_eq!(
            err(m.binary(BinOp::Add, Value::Nil, Value::Bool(true))),
            "cannot apply + to nil and bool"
        );
        assert_eq!(
            err(m.binary(BinOp::Sub, Value::Str("a".into()), Value::Int(1))),
            "cannot apply - to string and int"
        );
        assert_eq!(err(m.unary(UnOp::Neg, Value::Nil)), "cannot negate nil");
        assert_eq!(ops(m), [], "a failed primitive charges nothing");
    }

    #[test]
    fn string_concat_allocates_before_pending_tallies() {
        let mut m = meter();
        m.step().unwrap();
        let v = m.binary(BinOp::Add, Value::Int(7), Value::Str("up".into())).unwrap();
        assert_eq!(v, Value::Str("7up".into()));
        let ops = ops(m);
        assert!(
            matches!(ops[..], [Op::Alloc(3), Op::Cpu(14), Op::MemRead { bytes: 3, .. }]),
            "{ops:?}"
        );
    }

    #[test]
    fn index_primitives_charge_and_report() {
        let mut m = meter();
        let a = m.new_array(vec![Value::Int(5)]);
        assert_eq!(m.index(&a, &Value::Int(0)), Ok(Value::Int(5)));
        m.index_set(&a, &Value::Int(0), Value::Int(6)).unwrap();
        assert_eq!(m.index(&Value::Str("A".into()), &Value::Int(0)), Ok(Value::Int(65)));
        assert_eq!(err(m.index(&a, &Value::Int(1))), "index 1 out of range (len 1)");
        assert_eq!(err(m.index(&a, &Value::Float(1.5))), "bad index 1.5");
        assert_eq!(err(m.index(&Value::Nil, &Value::Int(0))), "cannot index nil");
        assert_eq!(
            err(m.index_set(&Value::Nil, &Value::Int(0), Value::Nil).map(|()| Value::Nil)),
            "cannot index nil for assignment"
        );
        assert!(matches!(ops(m)[0], Op::Alloc(16)));
    }

    #[test]
    fn call_depth_is_bounded() {
        let mut m = meter();
        for _ in 0..MAX_CALL_DEPTH {
            m.enter_call().unwrap();
        }
        assert_eq!(
            m.enter_call(),
            Err(ScriptError::Runtime(format!("call depth exceeded ({MAX_CALL_DEPTH})")))
        );
        m.exit_call();
        m.enter_call().unwrap();
    }

    /// The same calls into a meter of any width: steps, shared tallies
    /// that cross `FLUSH_EVERY` on the log path, ordered ops and
    /// allocations ahead of pending tallies.
    fn drive<const N: usize>(m: &mut Meter<N>) {
        for i in 0..40u64 {
            m.step().unwrap();
            m.add_mem(8 * i);
            if i % 3 == 0 {
                m.add_float(i);
            }
            if i % 7 == 0 {
                m.add_log(&"y".repeat(FLUSH_EVERY as usize / 5));
            }
            if i % 11 == 0 {
                m.ordered(|t| t.io_write(64 * i));
                m.new_array(vec![Value::Int(1); i as usize]);
            }
            if i % 13 == 0 {
                m.binary(BinOp::Add, Value::Str("s".into()), Value::Int(i as i64)).unwrap();
            }
        }
    }

    #[test]
    fn each_lane_records_what_a_meter_of_its_mode_alone_records() {
        let modes = [
            JitMode::Interpret { dispatch_cost: FLUSH_EVERY / 3 },
            JitMode::Tracing {
                cold_cost: FLUSH_EVERY / 8,
                threshold: 17,
                compile_cost: FLUSH_EVERY,
                hot_cost: 5,
            },
        ];
        let mut both = Meter::new(modes, 1_000);
        drive(&mut both);
        let alone = modes.map(|jit| {
            let mut m = Meter::new([jit], 1_000);
            drive(&mut m);
            let [outcome] = m.finish();
            outcome
        });
        let lanes = both.finish();
        assert_eq!(lanes, alone);
        assert_ne!(lanes[0].trace, lanes[1].trace, "the modes charge differently");
    }

    #[test]
    fn a_lane_flushes_on_its_own_charge_not_its_siblings() {
        let cheap = JitMode::Interpret { dispatch_cost: 1 };
        let mut m = Meter::new([JitMode::Interpret { dispatch_cost: FLUSH_EVERY }, cheap], 1_000);
        m.add_mem(40);
        m.step().unwrap();
        assert!(matches!(emitted(&m)[..], [Op::Cpu(FLUSH_EVERY), Op::MemRead { bytes: 40, .. }]));
        assert!(m.lanes[1].trace.is_empty(), "one op short of its own threshold");
        m.add_mem(2);
        let [_, cheap] = m.finish();
        let ops: Vec<Op> = cheap.trace.iter().copied().collect();
        assert!(matches!(ops[..], [Op::Cpu(1), Op::MemRead { bytes: 42, .. }]), "{ops:?}");
    }
}
