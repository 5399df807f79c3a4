//! The served surrogate forward on a reused tape. A `GnnEvaluator` keeps
//! one tape across all the forwards of a search: reusing it must change
//! no objective bit, and once a shape has been seen a forward at that
//! shape must allocate no tape storage.

use chainnet_suite::core::graph::PlacementGraph;
use chainnet_suite::core::model::{ChainNet, Surrogate, Tape};
use chainnet_suite::datagen::case_study::case_study_problem;
use chainnet_suite::placement::evaluator::{BatchEvaluator, GnnEvaluator};
use chainnet_suite::placement::problem::PlacementProblem;
use chainnet_suite::qsim::model::{Device, Fragment, Placement, ServiceChain};

/// The model the daemon serves (hidden 32, 4 iterations).
fn served_model() -> ChainNet {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/model_default_chainnet.json"
    );
    let text = std::fs::read_to_string(path).expect("read the served model");
    let doc: serde::Value = serde_json::from_str(&text).expect("parse the served model");
    serde_json::from_value(doc.get("model").cloned().expect("model field"))
        .expect("deserialize the served model")
}

/// Two chains sharing three devices.
fn two_chain_problem() -> PlacementProblem {
    let devices = [(6.0, 1.0), (4.0, 2.0), (5.0, 1.5)]
        .iter()
        .map(|&(m, r)| Device::new(m, r).expect("device"))
        .collect();
    let frag = |m, c| Fragment::new(m, c).expect("fragment");
    let chains = vec![
        ServiceChain::new(0.6, vec![frag(1.0, 1.0), frag(2.0, 2.0)]).expect("chain"),
        ServiceChain::new(0.4, vec![frag(1.0, 1.5), frag(1.0, 1.0), frag(2.0, 0.5)])
            .expect("chain"),
    ];
    PlacementProblem::new(devices, chains).expect("problem")
}

/// The initial placement followed by up to `n - 1` feasible one-move
/// neighbours of it.
fn candidates(problem: &PlacementProblem, n: usize) -> Vec<Placement> {
    let initial = problem.initial_placement().expect("initial placement");
    let mut out = vec![initial.clone()];
    for (chain, frag, device) in initial.iter() {
        for to in (0..problem.num_devices()).filter(|&d| d != device) {
            let mut moved = initial.clone();
            moved.set_device(chain, frag, to);
            if out.len() < n && problem.is_feasible(&moved) {
                out.push(moved);
            }
        }
    }
    assert_eq!(out.len(), n, "not enough feasible neighbours");
    out
}

fn graphs(model: &ChainNet, problem: &PlacementProblem, ps: &[Placement]) -> Vec<PlacementGraph> {
    ps.iter()
        .map(|p| {
            let sys = problem.bind(p.clone()).expect("bind");
            PlacementGraph::from_model(&sys, model.config().feature_mode)
        })
        .collect()
}

#[test]
fn reused_evaluator_tape_matches_fresh_tape_bitwise() {
    let model = served_model();
    let (case, two) = (
        case_study_problem().expect("case study"),
        two_chain_problem(),
    );
    let (case_ps, two_ps) = (candidates(&case, 3), candidates(&two, 3));
    let mut ev = GnnEvaluator::new(model.clone());
    // Shapes change on every call: B = 1 and B = 3, on two topologies,
    // then the case study again on the tape the others have grown.
    let calls = [
        (&case, &case_ps[..1]),
        (&case, &case_ps[..]),
        (&two, &two_ps[..1]),
        (&two, &two_ps[..]),
        (&case, &case_ps[..1]),
        (&case, &case_ps[..]),
    ];
    for (i, (problem, ps)) in calls.into_iter().enumerate() {
        let got = ev.total_throughput_batch(problem, ps);
        let fresh = model.predict_batch(&graphs(&model, problem, ps));
        assert_eq!(got.len(), fresh.len());
        for (g, preds) in got.iter().zip(&fresh) {
            let want: f64 = preds.iter().map(|p| p.throughput).sum();
            let g = *g.as_ref().expect("finite objective");
            assert_eq!(g.to_bits(), want.to_bits(), "call {i}: {g} vs {want}");
        }
    }
}

#[test]
fn warm_served_forward_grows_no_tape_storage() {
    let model = served_model();
    let (case, two) = (
        case_study_problem().expect("case study"),
        two_chain_problem(),
    );
    let served = graphs(&model, &case, &candidates(&case, 1));
    let mixed = graphs(&model, &two, &candidates(&two, 3));
    let mut tape = Tape::new();
    model.predict_batch_with(&mut tape, &served);
    model.predict_batch_with(&mut tape, &mixed);
    let warm = tape.heap_growths();
    for batch in [&served, &mixed, &served, &served] {
        model.predict_batch_with(&mut tape, batch);
        assert_eq!(tape.heap_growths(), warm, "B = {}", batch.len());
    }
}
