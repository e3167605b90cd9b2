//! OpenQASM 2.0 subset import/export.
//!
//! The supported subset covers what the benchmark families need:
//! `qreg`/`creg`, the standard single-qubit alphabet (`h x y z s sdg t
//! tdg sx id`, `rx ry rz p u1`), two-qubit `cx cz cp cu1 swap`, `ccx`,
//! `barrier`, and `measure` (parsed and ignored — this workspace
//! simulates terminal measurement by sampling). Negative controls and
//! permutation blocks have no QASM 2 representation; exporting them
//! fails with [`QasmError::Unsupported`].

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::op::Operation;

/// Widest `qreg` the importer accepts: the `u8` level range of the DD
/// engine's nodes. Engines cap lower still; this bound keeps a hostile
/// declaration from sizing anything downstream.
pub const MAX_QASM_QUBITS: usize = 255;

/// Errors from QASM import/export.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QasmError {
    /// The exporter met an operation with no QASM 2 representation.
    Unsupported {
        /// Human-readable description of the operation.
        what: String,
    },
    /// The importer met malformed input.
    Parse {
        /// Line number (1-based; 0 when the whole input is at fault,
        /// e.g. a missing `qreg`).
        line: usize,
        /// Column of the offending statement within the line (1-based
        /// byte offset; 0 when no statement is at fault).
        column: usize,
        /// Reason.
        reason: String,
    },
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::Unsupported { what } => {
                write!(f, "operation not representable in OpenQASM 2: {what}")
            }
            QasmError::Parse {
                line,
                column,
                reason,
            } => write!(f, "parse error at line {line}, column {column}: {reason}"),
        }
    }
}

impl Error for QasmError {}

/// Serializes a circuit to OpenQASM 2.0.
///
/// # Errors
///
/// [`QasmError::Unsupported`] for negative controls, more than two
/// controls, or permutation blocks.
pub fn to_qasm(circuit: &Circuit) -> Result<String, QasmError> {
    let mut out = String::new();
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    let _ = writeln!(out, "// circuit: {}", circuit.name());
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    for op in circuit.ops() {
        match op {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                if controls.iter().any(|c| !c.positive) {
                    return Err(QasmError::Unsupported {
                        what: format!("negative control in {op}"),
                    });
                }
                match controls.len() {
                    0 => {
                        let _ = writeln!(out, "{} q[{}];", gate_call(*gate), target);
                    }
                    1 => {
                        let c = controls[0].qubit;
                        match gate {
                            Gate::X => {
                                let _ = writeln!(out, "cx q[{c}],q[{target}];");
                            }
                            Gate::Z => {
                                let _ = writeln!(out, "cz q[{c}],q[{target}];");
                            }
                            Gate::Phase(t) => {
                                let _ = writeln!(out, "cp({t}) q[{c}],q[{target}];");
                            }
                            other => {
                                return Err(QasmError::Unsupported {
                                    what: format!("controlled {other}"),
                                })
                            }
                        }
                    }
                    2 if *gate == Gate::X => {
                        let _ = writeln!(
                            out,
                            "ccx q[{}],q[{}],q[{}];",
                            controls[0].qubit, controls[1].qubit, target
                        );
                    }
                    _ => {
                        return Err(QasmError::Unsupported {
                            what: format!("{op}"),
                        })
                    }
                }
            }
            Operation::Permutation { label, .. } => {
                return Err(QasmError::Unsupported {
                    what: format!("permutation block {label}"),
                })
            }
            Operation::DenseBlock { label, .. } => {
                return Err(QasmError::Unsupported {
                    what: format!("dense unitary block {label}"),
                })
            }
            Operation::ApproxPoint => {
                let _ = writeln!(out, "// approx_point");
            }
            Operation::Barrier => {
                let _ = writeln!(out, "barrier q;");
            }
        }
    }
    Ok(out)
}

fn gate_call(g: Gate) -> String {
    match g.parameter() {
        Some(t) => format!("{}({t})", g.name()),
        None => g.name().to_string(),
    }
}

/// Parses an OpenQASM 2.0 subset into a [`Circuit`].
///
/// Comment lines of the form `// approx_point` round-trip back into
/// [`Operation::ApproxPoint`] markers.
///
/// # Errors
///
/// [`QasmError::Parse`] with the offending line on malformed input or
/// constructs outside the subset.
pub fn from_qasm(src: &str) -> Result<Circuit, QasmError> {
    let span = approxdd_telemetry::Span::enter("qasm.parse");
    let result = from_qasm_inner(src);
    let _ = span.finish();
    let result_label = if result.is_ok() { "ok" } else { "error" };
    approxdd_telemetry::count_with("approxdd_qasm_parses_total", &[("result", result_label)], 1);
    result
}

fn from_qasm_inner(src: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.trim();
        if text == "// approx_point" {
            if let Some(c) = circuit.as_mut() {
                c.approx_point();
            }
            continue;
        }
        let text = text.split("//").next().unwrap_or("").trim_end();
        if text.trim().is_empty() {
            continue;
        }
        // Track each statement's byte offset within the raw line so
        // parse errors point at the statement, not just the line.
        let mut offset = raw.len() - raw.trim_start().len();
        for stmt in text.split(';') {
            let leading = stmt.len() - stmt.trim_start().len();
            let column = offset + leading + 1;
            let trimmed = stmt.trim();
            offset += stmt.len() + 1; // consumed statement + ';'
            if trimmed.is_empty() {
                continue;
            }
            parse_statement(trimmed, line, column, &mut circuit)?;
        }
    }
    circuit.ok_or(QasmError::Parse {
        line: 0,
        column: 0,
        reason: "no qreg declaration found".to_string(),
    })
}

fn parse_statement(
    stmt: &str,
    line: usize,
    column: usize,
    circuit: &mut Option<Circuit>,
) -> Result<(), QasmError> {
    let err = |reason: &str| QasmError::Parse {
        line,
        column,
        reason: reason.to_string(),
    };
    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") || stmt.starts_with("creg") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let n: usize = bracketed(rest)
            .ok_or_else(|| err("malformed qreg"))?
            .parse()
            .map_err(|_| err("bad qreg size"))?;
        if n > MAX_QASM_QUBITS {
            return Err(err(&format!(
                "qreg of {n} qubits exceeds the maximum of {MAX_QASM_QUBITS}"
            )));
        }
        if circuit.is_some() {
            return Err(err("multiple qreg declarations are not supported"));
        }
        *circuit = Some(Circuit::new(n, "qasm"));
        return Ok(());
    }
    let c = circuit
        .as_mut()
        .ok_or_else(|| err("statement before qreg"))?;
    if stmt.starts_with("barrier") {
        c.barrier();
        return Ok(());
    }
    if stmt.starts_with("measure") {
        return Ok(()); // terminal measurement handled by sampling
    }

    // "<name>(args?) q[a],q[b],..."
    let (head, tail) = stmt
        .split_once(' ')
        .ok_or_else(|| err("missing operands"))?;
    let (name, param) = match head.split_once('(') {
        Some((n, p)) => {
            let p = p
                .strip_suffix(')')
                .ok_or_else(|| err("unbalanced parens"))?;
            (
                n.trim(),
                Some(parse_angle(p).ok_or_else(|| err("bad angle"))?),
            )
        }
        None => (head.trim(), None),
    };
    let qubits: Vec<usize> = tail
        .split(',')
        .map(|t| bracketed(t)?.parse().ok())
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| err("malformed qubit operand"))?;

    let single = |g: Gate| -> Result<Gate, QasmError> { Ok(g) };
    match (name, qubits.as_slice()) {
        ("h", [q]) => c.gate(single(Gate::H)?, *q),
        ("x", [q]) => c.gate(Gate::X, *q),
        ("y", [q]) => c.gate(Gate::Y, *q),
        ("z", [q]) => c.gate(Gate::Z, *q),
        ("s", [q]) => c.gate(Gate::S, *q),
        ("sdg", [q]) => c.gate(Gate::Sdg, *q),
        ("t", [q]) => c.gate(Gate::T, *q),
        ("tdg", [q]) => c.gate(Gate::Tdg, *q),
        ("sx", [q]) => c.gate(Gate::Sx, *q),
        ("sxdg", [q]) => c.gate(Gate::Sxdg, *q),
        // Non-standard but used by supremacy circuits; we emit and accept
        // these mnemonics so our own exports round-trip.
        ("sy", [q]) => c.gate(Gate::Sy, *q),
        ("sydg", [q]) => c.gate(Gate::Sydg, *q),
        ("id", [q]) => c.gate(Gate::I, *q),
        ("rx", [q]) => c.gate(Gate::Rx(param.ok_or_else(|| err("rx needs angle"))?), *q),
        ("ry", [q]) => c.gate(Gate::Ry(param.ok_or_else(|| err("ry needs angle"))?), *q),
        ("rz", [q]) => c.gate(Gate::Rz(param.ok_or_else(|| err("rz needs angle"))?), *q),
        ("p" | "u1", [q]) => c.gate(
            Gate::Phase(param.ok_or_else(|| err("phase needs angle"))?),
            *q,
        ),
        ("cx", [a, b]) => c.cx(*a, *b),
        ("cz", [a, b]) => c.cz(*a, *b),
        ("cp" | "cu1", [a, b]) => c.cp(param.ok_or_else(|| err("cp needs angle"))?, *a, *b),
        ("swap", [a, b]) => c.swap(*a, *b),
        ("ccx", [a, b, t]) => c.ccx(*a, *b, *t),
        _ => return Err(err(&format!("unsupported statement '{stmt}'"))),
    };
    Ok(())
}

/// The text between the first `[` and the first `]` of `s`; `None`
/// when either is missing or they come in the wrong order.
fn bracketed(s: &str) -> Option<&str> {
    let open = s.find('[')?;
    let close = s.find(']')?;
    s.get(open + 1..close)
}

/// Parses the angle grammar `[-] (float | pi | float*pi | pi/float |
/// float*pi/float)`. Only a finite value is an angle: `nan`, `inf` and
/// `1/0` parse as floats but have no gate matrix.
fn parse_angle(s: &str) -> Option<f64> {
    let s = s.trim().replace(' ', "");
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest.to_string()),
        None => (false, s),
    };
    let value = if let Some((num, den)) = s.split_once('/') {
        parse_term(num)? / parse_term(den)?
    } else {
        parse_term(&s)?
    };
    value
        .is_finite()
        .then_some(if neg { -value } else { value })
}

fn parse_term(s: &str) -> Option<f64> {
    if let Some((a, b)) = s.split_once('*') {
        return Some(parse_term(a)? * parse_term(b)?);
    }
    if s == "pi" {
        return Some(std::f64::consts::PI);
    }
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn roundtrip_simple_circuit() {
        let mut c = Circuit::new(3, "rt");
        c.h(0)
            .cx(0, 1)
            .t(2)
            .cp(PI / 4.0, 1, 2)
            .approx_point()
            .ccx(0, 1, 2);
        let qasm = to_qasm(&c).unwrap();
        let back = from_qasm(&qasm).unwrap();
        assert_eq!(back.n_qubits(), 3);
        assert_eq!(back.gate_count(), c.gate_count());
        assert_eq!(
            back.len() - back.gate_count(),
            1,
            "the approximation marker survives"
        );
    }

    #[test]
    fn parse_angles() {
        assert_eq!(parse_angle("pi"), Some(PI));
        assert_eq!(parse_angle("-pi/2"), Some(-PI / 2.0));
        assert_eq!(parse_angle("3*pi/4"), Some(3.0 * PI / 4.0));
        assert_eq!(parse_angle("0.25"), Some(0.25));
        assert_eq!(parse_angle("2*pi"), Some(2.0 * PI));
        assert_eq!(parse_angle("x"), None);
    }

    #[test]
    fn parse_realistic_header() {
        let src = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg m[2];
h q[0];
cx q[0],q[1];
measure q[0] -> m[0];
"#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn export_rejects_negative_controls() {
        let mut c = Circuit::new(2, "neg");
        c.push(Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![crate::op::Control::negative(1)],
        });
        assert!(matches!(to_qasm(&c), Err(QasmError::Unsupported { .. })));
    }

    #[test]
    fn export_rejects_permutations() {
        let mut c = Circuit::new(2, "perm");
        c.permutation(0, 1, vec![1, 0], &[], "x");
        assert!(matches!(to_qasm(&c), Err(QasmError::Unsupported { .. })));
    }

    #[test]
    fn import_errors_carry_line_numbers() {
        let src = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n";
        match from_qasm(src) {
            Err(QasmError::Parse { line, column, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(column, 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn import_errors_carry_column_context() {
        // The offending statement is the second on its line, behind
        // leading indentation: the column must point at it, and the
        // rendered message must carry both coordinates so a `simulate`
        // user can act on it.
        let src = "OPENQASM 2.0;\nqreg q[2];\n  h q[0]; frobnicate q[1];\n";
        let err = from_qasm(src).expect_err("must fail");
        match &err {
            QasmError::Parse {
                line,
                column,
                reason,
            } => {
                assert_eq!(*line, 3);
                assert_eq!(*column, 11, "column of `frobnicate`");
                assert!(reason.contains("frobnicate"), "{reason}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let message = err.to_string();
        assert!(
            message.contains("line 3") && message.contains("column 11"),
            "{message}"
        );
        // A bad angle mid-statement still reports the statement start.
        let src = "qreg q[1];\nrx(oops) q[0];\n";
        match from_qasm(src) {
            Err(QasmError::Parse { line, column, .. }) => {
                assert_eq!((line, column), (2, 1));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn import_requires_qreg() {
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\nh q[0];\n"),
            Err(QasmError::Parse { .. })
        ));
    }

    #[test]
    fn supremacy_roundtrips_through_qasm() {
        let c = crate::generators::supremacy(2, 3, 8, 1);
        let qasm = to_qasm(&c).unwrap();
        let back = from_qasm(&qasm).unwrap();
        assert_eq!(back.n_qubits(), c.n_qubits());
        assert_eq!(back.gate_count(), c.gate_count());
    }

    #[test]
    fn qft_exports_cleanly() {
        let c = crate::generators::qft(4);
        let qasm = to_qasm(&c).unwrap();
        assert!(qasm.contains("cp("));
        let back = from_qasm(&qasm).unwrap();
        assert_eq!(back.gate_count(), c.gate_count());
    }
}
