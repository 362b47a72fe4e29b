//! Builtin functions shared by the tree-walking interpreter and the stack
//! bytecode VM.

use confbench_types::SyscallKind;

use crate::error::ScriptError;
use crate::meter::Meter;
use crate::value::Value;

/// Names the engines must treat as builtins (user functions cannot shadow
/// them).
pub(crate) const BUILTIN_NAMES: &[&str] = &[
    "log",
    "result",
    "len",
    "push",
    "pop",
    "array_new",
    "str",
    "int",
    "float",
    "chr",
    "sqrt",
    "sin",
    "cos",
    "floor",
    "abs",
    "ln",
    "exp",
    "io_write",
    "io_read",
    "file_meta",
    "dir_op",
    "alloc",
    "release",
    "mem_touch",
    "ctx_switch",
];

/// Dispatches a builtin call.
pub(crate) fn call_builtin<const N: usize>(
    meter: &mut Meter<N>,
    name: &str,
    mut args: Vec<Value>,
) -> Result<Value, ScriptError> {
    let arity_err = |name: &str| ScriptError::Runtime(format!("wrong arguments to {name}"));
    match name {
        "log" => {
            let text = args.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
            meter.add_log(&text);
            Ok(Value::Nil)
        }
        "result" => {
            let v = args.pop().ok_or_else(|| arity_err("result"))?;
            meter.set_result(v.to_string());
            Ok(Value::Nil)
        }
        "len" => match args.first() {
            Some(Value::Array(items)) => Ok(Value::Int(items.borrow().len() as i64)),
            Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
            _ => Err(arity_err("len")),
        },
        "push" => {
            let v = args.pop().ok_or_else(|| arity_err("push"))?;
            match args.first() {
                Some(Value::Array(items)) => {
                    items.borrow_mut().push(v);
                    meter.add_mem(16);
                    Ok(Value::Nil)
                }
                _ => Err(arity_err("push")),
            }
        }
        "pop" => match args.first() {
            Some(Value::Array(items)) => Ok(items.borrow_mut().pop().unwrap_or(Value::Nil)),
            _ => Err(arity_err("pop")),
        },
        "array_new" => {
            let (n, init) = match (args.first(), args.get(1)) {
                (Some(Value::Int(n)), Some(init)) if *n >= 0 => (*n as usize, init.clone()),
                _ => return Err(arity_err("array_new")),
            };
            Ok(meter.new_array(vec![init; n]))
        }
        "str" => {
            let v = args.pop().ok_or_else(|| arity_err("str"))?;
            let s = v.to_string();
            meter.add_mem(s.len() as u64);
            Ok(Value::Str(s.into()))
        }
        "int" => match args.first() {
            Some(Value::Int(n)) => Ok(Value::Int(*n)),
            Some(Value::Float(x)) => Ok(Value::Int(*x as i64)),
            Some(Value::Str(s)) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| ScriptError::Runtime(format!("cannot parse int from {s:?}"))),
            _ => Err(arity_err("int")),
        },
        "float" => match args.first().and_then(|v| v.as_f64()) {
            Some(x) => Ok(Value::Float(x)),
            None => Err(arity_err("float")),
        },
        "chr" => match args.first() {
            Some(Value::Int(n)) if (0..=255).contains(n) => {
                Ok(Value::Str(((*n as u8) as char).to_string().into()))
            }
            _ => Err(arity_err("chr")),
        },
        "sqrt" | "sin" | "cos" | "floor" | "abs" | "ln" | "exp" => {
            let x = args.first().and_then(|v| v.as_f64()).ok_or_else(|| arity_err(name))?;
            meter.add_float(12); // libm-class cost
            let y = match name {
                "sqrt" => x.sqrt(),
                "sin" => x.sin(),
                "cos" => x.cos(),
                "floor" => x.floor(),
                "abs" => x.abs(),
                "ln" => x.ln(),
                _ => x.exp(),
            };
            Ok(Value::Float(y))
        }
        "io_write" => {
            let n = positive_int_arg(&args, "io_write")?;
            meter.ordered(|trace| {
                trace.syscall(SyscallKind::FileWrite, 1);
                trace.io_write(n);
            });
            Ok(Value::Nil)
        }
        "io_read" => {
            let n = positive_int_arg(&args, "io_read")?;
            meter.ordered(|trace| {
                trace.syscall(SyscallKind::FileRead, 1);
                trace.io_read(n);
            });
            Ok(Value::Nil)
        }
        "file_meta" => {
            let n = positive_int_arg(&args, "file_meta")?;
            meter.ordered(|trace| trace.syscall(SyscallKind::FileMeta, n));
            Ok(Value::Nil)
        }
        "dir_op" => {
            let n = positive_int_arg(&args, "dir_op")?;
            meter.ordered(|trace| trace.syscall(SyscallKind::DirOp, n));
            Ok(Value::Nil)
        }
        "alloc" => {
            let n = positive_int_arg(&args, "alloc")?;
            meter.ordered(|trace| trace.alloc(n));
            Ok(Value::Nil)
        }
        "release" => {
            let n = positive_int_arg(&args, "release")?;
            meter.ordered(|trace| trace.free(n));
            Ok(Value::Nil)
        }
        "mem_touch" => {
            let n = positive_int_arg(&args, "mem_touch")?;
            meter.ordered(|trace| {
                trace.mem_write(n);
            });
            Ok(Value::Nil)
        }
        "ctx_switch" => {
            let n = positive_int_arg(&args, "ctx_switch")?;
            meter.ordered(|trace| trace.ctx_switch(n));
            Ok(Value::Nil)
        }
        _ => Err(ScriptError::Runtime(format!("unknown function {name}"))),
    }
}

fn positive_int_arg(args: &[Value], name: &str) -> Result<u64, ScriptError> {
    match args.first() {
        Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
        _ => Err(ScriptError::Runtime(format!("{name} expects a non-negative int"))),
    }
}
