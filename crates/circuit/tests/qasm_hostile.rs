//! The QASM importer on untrusted bytes: whatever arrives, `from_qasm`
//! answers `Ok` or a positioned `Parse` error — it never panics, never
//! admits a register wider than [`MAX_QASM_QUBITS`] and never lets a
//! non-finite angle into a circuit.

use approxdd_circuit::qasm::{from_qasm, to_qasm, QasmError, MAX_QASM_QUBITS};
use approxdd_circuit::{generators, Circuit, Operation};
use proptest::prelude::*;

/// What every accepted program must satisfy, and every rejection be.
fn check(src: &str) -> Result<(), TestCaseError> {
    match from_qasm(src) {
        Ok(circuit) => {
            prop_assert!(circuit.n_qubits() <= MAX_QASM_QUBITS, "{src:?}");
            for op in circuit.ops() {
                if let Operation::Gate { gate, .. } = op {
                    prop_assert!(gate.parameter().is_none_or(f64::is_finite), "{src:?}");
                }
            }
            // Validation may reject (qubits out of range, duplicates)
            // but must return.
            let _ = circuit.validate();
        }
        Err(QasmError::Parse { .. }) => {}
        Err(other) => prop_assert!(false, "{src:?}: {other}"),
    }
    Ok(())
}

/// Fragments the statement parser looks for, so random soups reach its
/// branches far more often than uniform bytes would.
#[rustfmt::skip]
const TOKENS: [&str; 32] = [
    "qreg", "creg", "q", "[", "]", ";", "(", ")", ",", " ", "\n", "//", "h", "cx", "ccx", "rx",
    "cp", "barrier", "measure", "->", "pi", "nan", "inf", "-", "/", "*", "0", "1", "5", "64",
    "100000000000", "1e999",
];

fn reason(src: &str) -> String {
    match from_qasm(src) {
        Err(QasmError::Parse { reason, .. }) => reason,
        other => panic!("{src:?}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn hostile_literals_are_typed_parse_errors() {
    assert_eq!(reason("qreg q]5[;"), "malformed qreg");
    assert_eq!(reason("qreg q[1]; h q]0[;"), "malformed qubit operand");
    for angle in ["nan", "inf", "-inf", "1/0", "1e999", "pi/0"] {
        assert_eq!(
            reason(&format!("qreg q[2]; rx({angle}) q[0];")),
            "bad angle",
            "{angle}"
        );
    }
    // The register cap: positioned, and decided before any circuit of
    // that width exists.
    let err = from_qasm("OPENQASM 2.0;\n  qreg q[100000000000]; h q[0];").unwrap_err();
    assert_eq!(
        err,
        QasmError::Parse {
            line: 2,
            column: 3,
            reason: "qreg of 100000000000 qubits exceeds the maximum of 255".to_string(),
        }
    );
    assert_eq!(reason("qreg q[99999999999999999999999];"), "bad qreg size");
    assert_eq!(
        from_qasm("qreg q[255];").unwrap().n_qubits(),
        MAX_QASM_QUBITS
    );
    assert!(from_qasm("qreg q[256];").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u16..256, 96),
        len in 0usize..97
    ) {
        let bytes: Vec<u8> = bytes[..len].iter().map(|&b| b as u8).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soups_never_panic(
        picks in prop::collection::vec(0usize..TOKENS.len(), 24),
        len in 0usize..25
    ) {
        let soup: String = picks[..len].iter().map(|&i| TOKENS[i]).collect();
        check(&soup)?;
        // The same soup behind a valid declaration reaches the gate
        // statement parser.
        check(&format!("qreg q[4];{soup}"))?;
    }

    #[test]
    fn mutated_programs_never_panic(
        program in 0usize..3,
        edits in prop::collection::vec((0usize..6, any::<u64>(), any::<u64>()), 4),
        n_edits in 1usize..5
    ) {
        let circuit: Circuit = match program {
            0 => generators::qft(4),
            1 => generators::supremacy(2, 2, 6, 1),
            _ => generators::ghz(5),
        };
        let mut text = to_qasm(&circuit).unwrap().into_bytes();
        for &(kind, a, b) in &edits[..n_edits] {
            let at = |x: u64| (x % text.len() as u64) as usize;
            let (i, j) = (at(a), at(b));
            match kind {
                // Swap two bytes (brackets for each other, most usefully).
                0 => text.swap(i, j),
                // Turn the nearest bracket pair inside out.
                1 => {
                    if let Some(open) = text[i..].iter().position(|&c| c == b'[') {
                        text[i + open] = b']';
                        if let Some(close) = text[i + open + 1..].iter().position(|&c| c == b']') {
                            text[i + open + 1 + close] = b'[';
                        }
                    }
                }
                // A huge integer, a non-finite angle, a division by zero.
                2 => { text.splice(i..i, *b"100000000000"); }
                3 => { text.splice(i..i, *b"nan"); }
                4 => { text.splice(i..i, *b"/0"); }
                // Delete a byte.
                _ => { text.remove(i); }
            }
            if text.is_empty() {
                break;
            }
        }
        check(&String::from_utf8_lossy(&text))?;
    }
}
