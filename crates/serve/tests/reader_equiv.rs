//! Differential property test: the request reader (`parse_request`, which
//! reads a line once with `JsonReader` and a `sim`'s params straight into
//! points) against the tree-based extraction it replaced, kept in
//! `support/reference.rs` with the recursive-descent parser it ran on.
//!
//! Valid request lines are mutated at random (characters deleted,
//! inserted, replaced or duplicated, members and escapes spliced in, the
//! line cut short), and every mutated line must get the same outcome from
//! both: the same `Json::parse` result or error text, the same error
//! reply, or the same id, method, deadline and parameters, so the same
//! reply. Cases come from the vendored proptest shim, seeded per test
//! name, so a failure reproduces exactly.

use m3d_core::report::Json;
use m3d_serve::protocol::{err_line, parse_request, Params};
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "support/reference.rs"]
mod reference;

/// Valid lines the mutations start from: flat params and `points`,
/// `strict`, duplicate members, escapes, whitespace, `params` before
/// `method`, and every other method.
const BASES: &[&str] = &[
    r#"{"id":1,"method":"sim","params":{"app":"Gcc","design":"M3D-Het","seed":9,"n_cores":1,"warmup":200,"measure":300}}"#,
    r#"{"id":2,"method":"sim","params":{"points":[{"app":"Mcf","measure":300},{"app":"Ocean","n_cores":2,"design":"M3D-Het","measure":300,"freq_ghz":2.5}],"strict":true}}"#,
    r#"{"params":{"app":"Gcc","measure":300,"freq_ghz":3},"method":"sim","id":3,"deadline_ms":50}"#,
    r#" { "id" : 4 , "method" : "sim" , "params" : { "app" : "Gcc" , "app" : 7 , "measure" : 300 , "strict" : null } } "#,
    r#"{"id":5,"id":"x","method":"sim","method":"stats","params":{"app":"Bzip2","measure":1,"seed":18446744073709551615},"params":[]}"#,
    r#"{"id":6,"method":"sim","params":{"points":[{"app":"Gcc","measure":300,"points":[1],"strict":"x"},5,[],{"app":"Lbm","measure":2}]}}"#,
    r#"{"id":7,"method":"stats"}"#,
    r#"{"id":8,"method":"telemetry","params":{"recent":4,"format":"text"}}"#,
    r#"{"id":9,"method":"experiment","params":{"name":"fig8","x":[1.5e3,-0.25,true,null,{"k":"😀"}]}}"#,
    r#"{"id":-10,"method":"plan","params":{"apps":["Gcc"],"vdds":[0.9]},"deadline_ms":null}"#,
    r#"{"id":11,"method":"planner","params":{}}"#,
    r#"[{"id":12,"method":"sim"}]"#,
];

/// Characters the mutations insert: every JSON structural character,
/// digits, number and literal letters, an escape lead and non-ASCII.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\t', 'u', '0', '1', '9', '-', '.', 'e', 'E',
    '+', 'n', 't', 'r', 'f', 'a', 'l', 's', 'x', 'é', '😀',
];

/// Members and escapes spliced in whole.
const SNIPPETS: &[&str] = &[
    r#""app":"Mcf","#,
    r#""points":[{}],"#,
    r#""points":[],"#,
    r#""strict":true,"#,
    r#""id":5,"#,
    r#""method":"stats","#,
    r#""method":"sim","#,
    r#""params":{},"#,
    r#""measure":0,"#,
    r#""freq_ghz":2,"#,
    r#""freq_ghz":0,"#,
    r#""freq_ghz":-1.5,"#,
    r#""n_cores":2,"#,
    r#""design":"M3D-Het","#,
    r#""warmup":4999999,"#,
    r#"A"#,
    r#"😀"#,
    r#"\ud800"#,
    r#"\n"#,
    "[[[[",
];

/// Apply one mutation, drawn by `kind` and placed by `seed`.
fn mutate(line: &mut Vec<char>, kind: u64, seed: u64) {
    let at = |n: usize| {
        if n == 0 {
            0
        } else {
            (seed % n as u64) as usize
        }
    };
    let n = line.len();
    match kind {
        0 if n > 0 => {
            line.remove(at(n));
        }
        1 => line.insert(at(n + 1), ALPHABET[(seed >> 32) as usize % ALPHABET.len()]),
        2 if n > 0 => line[at(n)] = ALPHABET[(seed >> 32) as usize % ALPHABET.len()],
        3 if n > 0 => {
            let a = at(n);
            let b = (a + 1 + (seed >> 40) as usize % 12).min(n);
            let piece: Vec<char> = line[a..b].to_vec();
            let to = (seed >> 20) as usize % (n + 1);
            line.splice(to..to, piece);
        }
        4 => line.truncate(at(n + 1)),
        _ => {
            // Splice a snippet in after a `{` or `,` when there is one.
            let snippet = SNIPPETS[(seed >> 32) as usize % SNIPPETS.len()];
            let anchors: Vec<usize> = (0..n).filter(|&i| matches!(line[i], '{' | ',')).collect();
            let to = if anchors.is_empty() {
                at(n + 1)
            } else {
                anchors[at(anchors.len())] + 1
            };
            line.splice(to..to, snippet.chars());
        }
    }
}

/// Compare `line`'s outcomes from both readers; the difference, if any.
fn same_outcome(line: &str) -> Result<(), String> {
    let differ = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
        Err(format!("{what} of {line:?}: {got:?} against {want:?}"))
    };
    let (got, want) = (Json::parse(line), reference::parse_json(line));
    if got != want {
        return differ("Json::parse", &got, &want);
    }
    match (parse_request(line), reference::parse_request(line)) {
        (Err((id, e)), Err((ref_id, ref_e))) => {
            let (got, want) = (err_line(id, &e), err_line(ref_id, &ref_e));
            if got != want {
                return differ("error reply", &got, &want);
            }
        }
        (Ok(got), Ok(want)) => {
            let (g, w) = (
                (got.id, got.method, got.deadline_ms),
                (want.id, want.method, want.deadline_ms),
            );
            if g != w {
                return differ("envelope", &g, &w);
            }
            match got.params {
                Params::Sim(sim) => {
                    let want = reference::parse_sim_params(&want.params);
                    if sim != want {
                        return differ("sim params", &sim, &want);
                    }
                }
                Params::Tree(params) if params != want.params => {
                    return differ("params", &params, &want.params);
                }
                Params::Tree(_) => {}
            }
        }
        (got, want) => {
            return differ("outcome", &got.map(|r| r.id), &want.map(|r| r.id));
        }
    }
    Ok(())
}

#[test]
fn the_base_lines_read_alike() {
    for line in BASES {
        same_outcome(line).expect("same outcome");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]
    #[test]
    fn mutated_request_lines_get_the_reference_outcome(
        base in 0usize..BASES.len(),
        mutations in vec((0u64..7, any::<u64>()), 1..6),
    ) {
        let mut line: Vec<char> = BASES[base].chars().collect();
        for &(kind, seed) in &mutations {
            mutate(&mut line, kind, seed);
            let text: String = line.iter().collect();
            let outcome = same_outcome(&text);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
