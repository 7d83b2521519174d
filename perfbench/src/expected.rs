//! The known answers of `expected.txt` and the check of observed
//! verdicts and counts against them.

use pnp_lang::PropertyResult;

const ANSWERS: &str = include_str!("../expected.txt");

/// One property's verdict and counts, expected or observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub property: String,
    pub verdict: String,
    pub states: usize,
    pub steps: usize,
}

impl Answer {
    pub fn new(property: &str, verdict: &str, states: usize, steps: usize) -> Answer {
        Answer {
            property: property.to_string(),
            verdict: verdict.to_string(),
            states,
            steps,
        }
    }

    pub fn of_result(result: &PropertyResult) -> Answer {
        let verdict = if result.inconclusive {
            "INCONCLUSIVE"
        } else if result.holds {
            "HOLDS"
        } else {
            "VIOLATED"
        };
        Answer::new(&result.name, verdict, result.states, result.steps)
    }
}

/// The expected answers of `subject`, in source order.
pub fn of(subject: &str) -> Vec<Answer> {
    let answers: Vec<Answer> = ANSWERS
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [name, property, verdict, states, steps] = fields[..] else {
                panic!("expected.txt: malformed row {line:?}");
            };
            let count = |s: &str| {
                s.parse::<usize>()
                    .unwrap_or_else(|_| panic!("expected.txt: bad count in {line:?}"))
            };
            (name == subject).then(|| Answer::new(property, verdict, count(states), count(steps)))
        })
        .collect();
    assert!(
        !answers.is_empty(),
        "expected.txt has no answers for {subject}"
    );
    answers
}

/// Compares observed answers with the expected ones; on a mismatch,
/// returns a line naming the first difference.
pub fn check(subject: &str, expected: &[Answer], observed: &[Answer]) -> Result<(), String> {
    if expected.len() != observed.len() {
        return Err(format!(
            "{subject}: expected {} properties, got {}",
            expected.len(),
            observed.len()
        ));
    }
    for (want, got) in expected.iter().zip(observed) {
        if want != got {
            return Err(format!("{subject}: expected {want:?}, got {got:?}"));
        }
    }
    Ok(())
}
