//! The output comparator: engine or server outputs against the sequential
//! interpreter's, with the tolerance of the repository's equivalence tests
//! (doubles within 1e-6 relative) and collections compared as multisets.

use diablo_runtime::Value;

/// One program output: a scalar, or a collection of `(key, value)` rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Out {
    /// A scalar variable.
    Scalar(Value),
    /// A collection variable's rows, in any order.
    Rows(Vec<Value>),
}

/// The named outputs of one run.
pub type Outputs = Vec<(String, Out)>;

/// Approximate equality: doubles within 1e-6 relative (engine and
/// interpreter sum in different orders), everything else exact.
pub fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-6 * scale
        }
        (Value::Long(x), Value::Double(y)) | (Value::Double(y), Value::Long(x)) => {
            (*x as f64 - y).abs() <= 1e-6
        }
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| approx_eq(x, y))
        }
        (Value::Record(xs), Value::Record(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|((n, x), (m, y))| n == m && approx_eq(x, y))
        }
        (Value::Bag(xs), Value::Bag(ys)) => same_bag(xs, ys),
        _ => a == b,
    }
}

/// Multiset equality under [`approx_eq`]: both sides are sorted by the
/// total value order and compared element by element.
pub fn same_bag(actual: &[Value], expected: &[Value]) -> bool {
    if actual.len() != expected.len() {
        return false;
    }
    let mut a = actual.to_vec();
    let mut e = expected.to_vec();
    a.sort();
    e.sort();
    a.iter().zip(e.iter()).all(|(x, y)| approx_eq(x, y))
}

/// Checks every expected output against the actual ones. Returns a
/// one-line description of the first difference.
pub fn check(actual: &[(String, Out)], expected: &[(String, Out)]) -> Result<(), String> {
    for (name, want) in expected {
        let Some((_, got)) = actual.iter().find(|(n, _)| n == name) else {
            return Err(format!("output `{name}` missing"));
        };
        let same = match (got, want) {
            (Out::Scalar(g), Out::Scalar(w)) => approx_eq(g, w),
            (Out::Rows(g), Out::Rows(w)) => same_bag(g, w),
            _ => false,
        };
        if !same {
            return Err(format!("output `{name}` differs from the interpreter's"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(i64, f64)]) -> Vec<Value> {
        pairs
            .iter()
            .map(|(k, v)| Value::pair(Value::Long(*k), Value::Double(*v)))
            .collect()
    }

    #[test]
    fn doubles_compare_within_relative_tolerance() {
        assert!(approx_eq(&Value::Double(1e9), &Value::Double(1e9 + 1.0)));
        assert!(!approx_eq(&Value::Double(1.0), &Value::Double(1.001)));
        assert!(approx_eq(&Value::Long(3), &Value::Double(3.0)));
        assert!(!approx_eq(&Value::str("a"), &Value::str("b")));
    }

    #[test]
    fn collections_compare_as_multisets() {
        let a = rows(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let b = rows(&[(3, 3.0), (1, 1.0), (2, 2.0 + 1e-9)]);
        assert!(same_bag(&a, &b));
        assert!(!same_bag(&a, &rows(&[(1, 1.0), (2, 2.0)])));
        assert!(!same_bag(
            &rows(&[(1, 1.0), (1, 1.0)]),
            &rows(&[(1, 1.0), (2, 1.0)])
        ));
    }

    #[test]
    fn a_perturbed_reference_row_is_a_failure() {
        let actual = vec![
            ("C".to_string(), Out::Rows(rows(&[(1, 5.0), (2, 7.0)]))),
            ("sum".to_string(), Out::Scalar(Value::Double(12.0))),
        ];
        let expected = actual.clone();
        assert!(check(&actual, &expected).is_ok());

        let mut perturbed = expected.clone();
        perturbed[0].1 = Out::Rows(rows(&[(1, 5.0), (2, 7.5)]));
        assert!(check(&actual, &perturbed).is_err());

        let mut scalar_off = expected.clone();
        scalar_off[1].1 = Out::Scalar(Value::Double(12.1));
        assert!(check(&actual, &scalar_off).is_err());

        let missing = vec![("other".to_string(), Out::Scalar(Value::Long(1)))];
        assert!(check(&actual, &missing).is_err());
    }
}
