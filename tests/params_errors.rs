//! Error-path coverage for string-keyed algorithm parameters: every
//! [`ParamSpec`] in the registry gets an unknown-key case (asserting the
//! `suggest()`-style closest match) and an invalid-value case, so a new
//! parameter cannot land without validation. Parameterless algorithms
//! are pinned to the `NoParams` rejection, and every documented default
//! must run exactly like the bare registry entry.

use localavg::core::algo::{registry, ParamError, RunSpec};
use localavg::graph::{gen, rng::Rng};

#[test]
fn every_param_spec_rejects_an_invalid_value() {
    // Every declared parameter is numeric or an enum label, so a
    // non-numeric garbage token must fail per-key validation — and the
    // error must carry the algorithm, the key, the offending value, and
    // the expected range from the spec.
    for algo in registry().iter() {
        for spec in algo.param_specs() {
            let err = algo
                .with_params(&[(spec.key, "not-a-value")])
                .expect_err("garbage must be rejected");
            match err {
                ParamError::InvalidValue {
                    algorithm,
                    key,
                    value,
                    expected,
                } => {
                    assert_eq!(algorithm, algo.name());
                    assert_eq!(key, spec.key);
                    assert_eq!(value, "not-a-value");
                    assert!(
                        !expected.is_empty(),
                        "{}:{} has no expectation text",
                        algo.name(),
                        spec.key
                    );
                    let msg = ParamError::InvalidValue {
                        algorithm,
                        key,
                        value,
                        expected,
                    }
                    .to_string();
                    assert!(msg.contains("invalid value"), "odd message: {msg}");
                    assert!(msg.contains(spec.key), "message must name the key: {msg}");
                }
                other => panic!("{}:{} gave {other:?}", algo.name(), spec.key),
            }
        }
    }
}

#[test]
fn every_param_spec_suggests_itself_for_a_typo() {
    // A one-character mangling of each declared key must be rejected as
    // unknown *with* the true key as the closest-match suggestion — the
    // same "did you mean" contract the algorithm registry gives.
    for algo in registry().iter() {
        for spec in algo.param_specs() {
            let typo = format!("{}z", spec.key);
            let err = algo
                .with_params(&[(typo.as_str(), "1")])
                .expect_err("a typo key must be rejected");
            match err {
                ParamError::UnknownKey {
                    algorithm,
                    key,
                    suggestion,
                    known,
                } => {
                    assert_eq!(algorithm, algo.name());
                    assert_eq!(key, typo);
                    assert_eq!(
                        suggestion,
                        Some(spec.key),
                        "{}: `{typo}` should suggest `{}`",
                        algo.name(),
                        spec.key
                    );
                    assert!(known.contains(&spec.key));
                    let msg = ParamError::UnknownKey {
                        algorithm,
                        key: typo.clone(),
                        suggestion,
                        known,
                    }
                    .to_string();
                    assert!(
                        msg.contains("did you mean"),
                        "{}: message lacks the suggestion: {msg}",
                        algo.name()
                    );
                }
                other => panic!("{}:{typo} gave {other:?}", algo.name()),
            }
        }
    }
}

#[test]
fn garbage_keys_get_no_misleading_suggestion() {
    for algo in registry().iter() {
        if algo.param_specs().is_empty() {
            continue;
        }
        match algo
            .with_params(&[("zzzzzzzzzz", "1")])
            .expect_err("a garbage key")
        {
            ParamError::UnknownKey { suggestion, .. } => {
                assert_eq!(suggestion, None, "{}", algo.name());
            }
            other => panic!("{}: expected UnknownKey, got {other:?}", algo.name()),
        }
    }
}

#[test]
fn parameterless_algorithms_reject_every_key_as_no_params() {
    let mut covered = 0;
    for algo in registry().iter() {
        if !algo.param_specs().is_empty() {
            continue;
        }
        covered += 1;
        match algo
            .with_params(&[("anything", "1")])
            .expect_err("an unknown key")
        {
            ParamError::NoParams { algorithm, key } => {
                assert_eq!(algorithm, algo.name());
                assert_eq!(key, "anything");
                let msg = ParamError::NoParams { algorithm, key }.to_string();
                assert!(msg.contains("takes no parameters"), "{msg}");
            }
            other => panic!("{}: expected NoParams, got {other:?}", algo.name()),
        }
    }
    // The registry currently has 5 parameterless algorithms; at least
    // one must exist for this test to mean anything.
    assert!(covered >= 1);
}

#[test]
fn ruling_det_mutually_exclusive_pairs_are_rejected_in_both_orders() {
    let det = registry().get("ruling/det").expect("registered");
    for pair in [
        [("iterations", "2"), ("variant", "log-delta")],
        [("variant", "log-log-n"), ("iterations", "3")],
    ] {
        let err = det.with_params(&pair).expect_err("an exclusive pair");
        assert!(
            matches!(err, ParamError::InvalidValue { .. }),
            "expected InvalidValue, got {err:?}"
        );
    }
    // Each half alone stays valid.
    assert!(det.with_params(&[("iterations", "2")]).is_ok());
    assert!(det.with_params(&[("variant", "log-log-n")]).is_ok());
}

#[test]
fn valid_overrides_round_trip_through_with_params() {
    // The positive companion: each declared key accepts a representative
    // in-range value (the same pools `exp fuzz` samples from).
    for (algo, key, value) in [
        ("mis/luby", "mark-factor", "0.25"),
        ("mis/degree-guided", "initial-desire", "0.3"),
        ("mis/degree-guided", "mass-threshold", "3.5"),
        ("ruling/det", "variant", "log-log-n"),
        ("ruling/det", "iterations", "2"),
        ("matching/luby", "mark-factor", "1.0"),
        ("orientation/rand", "contest-iterations", "2"),
        ("orientation/det", "r", "3"),
        ("orientation/det", "finish-threshold", "16"),
        ("orientation/det", "max-depth", "6"),
        ("coloring/trial", "extra-colors", "0"),
    ] {
        registry()
            .get(algo)
            .unwrap_or_else(|| panic!("missing {algo}"))
            .with_params(&[(key, value)])
            .unwrap_or_else(|e| panic!("{algo}:{key}={value} rejected: {e}"));
    }
}

#[test]
fn documented_defaults_are_the_defaults() {
    // Every `ParamSpec::default` that is a literal value, assigned
    // explicitly, must reproduce the bare registry entry's run exactly:
    // the strings `exp --list` and the README print are the values the
    // algorithm really starts from. `ruling/det`'s `iterations` default
    // is "(variant)", a description rather than a value.
    let mut rng = Rng::seed_from(23);
    let g = gen::random_regular(48, 4, &mut rng).expect("graph");
    let spec = RunSpec::new(6);
    let mut checked = 0;
    // The `*/tree-rc` entries take no parameters, so a cyclic instance
    // serves every entry that has some.
    for algo in registry().iter().filter(|a| !a.param_specs().is_empty()) {
        let bare = algo.execute(&g, &spec);
        for p in algo.param_specs() {
            if p.default.starts_with('(') {
                continue;
            }
            let run = algo
                .with_params(&[(p.key, p.default)])
                .unwrap_or_else(|e| panic!("{}:{}={}: {e}", algo.name(), p.key, p.default))
                .execute(&g, &spec);
            let what = format!("{}:{}={}", algo.name(), p.key, p.default);
            assert_eq!(run.solution, bare.solution, "{what}");
            assert_eq!(
                run.completion_times(&g),
                bare.completion_times(&g),
                "{what}"
            );
            assert_eq!(run.transcript.rounds, bare.transcript.rounds, "{what}");
            checked += 1;
        }
    }
    assert_eq!(checked, 10, "literal defaults across the registry");
}
