//! Golden pin of every training trajectory: the per-epoch training (and
//! validation) loss bits and an FNV-1a hash of the final parameter bits,
//! for 2 seeds under both target modes.
//!
//! The constants were captured with the separate per-graph, packed and
//! guarded training loops that `Trainer::fit` replaced. `fit` must
//! reproduce every one of them for each step kind, with the checkpoint
//! sink off and on, and a guard whose clip is disabled must reproduce
//! the unguarded constants. A clip of 1.0 changes the trajectory only
//! where it actually clips (Absolute targets; Ratio gradients stay
//! below 1), so its row is pinned for Absolute targets.

use chainnet::config::{ModelConfig, TargetMode, TrainConfig};
use chainnet::data::{ChainTargets, LabeledGraph};
use chainnet::graph::PlacementGraph;
use chainnet::model::{ChainNet, Surrogate};
use chainnet::train::{
    CheckpointPlan, GuardConfig, Packed, PerGraph, StepKind, TrainError, TrainPlan, TrainReport,
    Trainer, TRAIN_CKPT_SCHEMA,
};
use chainnet_ckpt::CkptStore;
use chainnet_obs::Obs;
use chainnet_qsim::model::{Device, Fragment, Placement, ServiceChain, SystemModel};

const SEEDS: [u64; 2] = [3, 8];
const MODES: [TargetMode; 2] = [TargetMode::Ratio, TargetMode::Absolute];
const KINDS: [StepKind; 3] = [StepKind::PerGraph, StepKind::PackedF64, StepKind::PackedF32];

struct Golden {
    case: &'static str,
    seed: u64,
    mode: TargetMode,
    loss: &'static [u64],
    val: &'static [u64],
    hash: u64,
}

/// Captured with the pre-`fit` training loops (see the module docs).
const GOLDEN: &[Golden] = &[
    Golden {
        case: "per_graph",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec19877fe13,
            0x3faecbf52a351714,
            0x3fa25321b53aa484,
            0x3f96e162a3eb06b5,
        ],
        val: &[],
        hash: 0x2fdfc5d6d84c0710,
    },
    Golden {
        case: "packed_f64",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec19877fe12,
            0x3faecbf52a351715,
            0x3fa25321b53aa485,
            0x3f96e162a3eb06b2,
        ],
        val: &[],
        hash: 0x523873553816422b,
    },
    Golden {
        case: "packed_f32",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec192492492,
            0x3faecbf53cf3cf3d,
            0x3fa2532192492492,
            0x3f96e1629e79e79e,
        ],
        val: &[],
        hash: 0xca1953127504231f,
    },
    Golden {
        case: "per_graph_val",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec19877fe13,
            0x3faecbf52a351714,
            0x3fa25321b53aa484,
            0x3f96e162a3eb06b5,
        ],
        val: &[
            0x3fb1db6f3fd4af2e,
            0x3fa4c71b3fe20025,
            0x3f9c151acad97649,
            0x3f904cac112f3c42,
        ],
        hash: 0x2fdfc5d6d84c0710,
    },
    Golden {
        case: "packed_f64_val",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec19877fe12,
            0x3faecbf52a351715,
            0x3fa25321b53aa485,
            0x3f96e162a3eb06b2,
        ],
        val: &[
            0x3fb1db6f3fd4af2e,
            0x3fa4c71b3fe20023,
            0x3f9c151acad97647,
            0x3f904cac112f3c43,
        ],
        hash: 0x523873553816422b,
    },
    Golden {
        case: "packed_f32_val",
        seed: 3,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fb5cec192492492,
            0x3faecbf53cf3cf3d,
            0x3fa2532192492492,
            0x3f96e1629e79e79e,
        ],
        val: &[
            0x3fb1db6f3d39e7c7,
            0x3fa4c71b35ab2cd3,
            0x3f9c151ad47698fa,
            0x3f904cac10290126,
        ],
        hash: 0xca1953127504231f,
    },
    Golden {
        case: "per_graph",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a1e87a8e,
            0x3f7d43268d4dab6c,
            0x3f678432bd1fbfa8,
            0x3f6c5d49967280fd,
        ],
        val: &[],
        hash: 0xf85d5953648db963,
    },
    Golden {
        case: "packed_f64",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a1e87a8e,
            0x3f7d43268d4dab68,
            0x3f678432bd1fbfa5,
            0x3f6c5d49967280fb,
        ],
        val: &[],
        hash: 0xd2bfff420903bad6,
    },
    Golden {
        case: "packed_f32",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a79e79e8,
            0x3f7d432786186186,
            0x3f67843279e79e7a,
            0x3f6c5d48c30c30c3,
        ],
        val: &[],
        hash: 0x140c1187f67c03eb,
    },
    Golden {
        case: "per_graph_val",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a1e87a8e,
            0x3f7d43268d4dab6c,
            0x3f678432bd1fbfa8,
            0x3f6c5d49967280fd,
        ],
        val: &[
            0x3f8e210b2a78073f,
            0x3f6a5b827bd9a4ff,
            0x3f6e7cb58d497419,
            0x3f6fb58955401365,
        ],
        hash: 0xf85d5953648db963,
    },
    Golden {
        case: "packed_f64_val",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a1e87a8e,
            0x3f7d43268d4dab68,
            0x3f678432bd1fbfa5,
            0x3f6c5d49967280fb,
        ],
        val: &[
            0x3f8e210b2a78073b,
            0x3f6a5b827bd9a4ff,
            0x3f6e7cb58d49741b,
            0x3f6fb5895540136a,
        ],
        hash: 0xd2bfff420903bad6,
    },
    Golden {
        case: "packed_f32_val",
        seed: 8,
        mode: TargetMode::Ratio,
        loss: &[
            0x3fa79546a79e79e8,
            0x3f7d432786186186,
            0x3f67843279e79e7a,
            0x3f6c5d48c30c30c3,
        ],
        val: &[
            0x3f8e210c0a3b3027,
            0x3f6a5b82b7571e6d,
            0x3f6e7cb4c65d6015,
            0x3f6fb588bb6fa010,
        ],
        hash: 0x140c1187f67c03eb,
    },
    Golden {
        case: "per_graph",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0d9ba0dd2,
            0x3fc6823bfa325cfb,
            0x3fc531d16df3bb32,
            0x3fa78bfd6e3cfaa2,
        ],
        val: &[],
        hash: 0x2949f2152730c315,
    },
    Golden {
        case: "packed_f64",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0d9ba0dd2,
            0x3fc6823bfa325cfd,
            0x3fc531d16df3bb32,
            0x3fa78bfd6e3cfaa4,
        ],
        val: &[],
        hash: 0xd138833953093335,
    },
    Golden {
        case: "packed_f32",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0e4924925,
            0x3fc6823c00000000,
            0x3fc531d179e79e7a,
            0x3fa78bfe80000000,
        ],
        val: &[],
        hash: 0x8612faf2ee74cd23,
    },
    Golden {
        case: "per_graph_val",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0d9ba0dd2,
            0x3fc6823bfa325cfb,
            0x3fc531d16df3bb32,
            0x3fa78bfd6e3cfaa2,
        ],
        val: &[
            0x3fd00ef4b7d52c85,
            0x3fc71a94ce6e3cba,
            0x3fb1d47f4a73a76a,
            0x3faa59c110d81ef7,
        ],
        hash: 0x2949f2152730c315,
    },
    Golden {
        case: "packed_f64_val",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0d9ba0dd2,
            0x3fc6823bfa325cfd,
            0x3fc531d16df3bb32,
            0x3fa78bfd6e3cfaa4,
        ],
        val: &[
            0x3fd00ef4b7d52c86,
            0x3fc71a94ce6e3cb9,
            0x3fb1d47f4a73a76e,
            0x3faa59c110d81ef5,
        ],
        hash: 0xd138833953093335,
    },
    Golden {
        case: "packed_f32_val",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f1d0e4924925,
            0x3fc6823c00000000,
            0x3fc531d179e79e7a,
            0x3fa78bfe80000000,
        ],
        val: &[
            0x3fd00ef506eefc81,
            0x3fc71a9500353c18,
            0x3fb1d4802d32d7d4,
            0x3faa59bf7a37bb9b,
        ],
        hash: 0x8612faf2ee74cd23,
    },
    Golden {
        case: "per_graph_clip1",
        seed: 3,
        mode: TargetMode::Absolute,
        loss: &[
            0x3ff0f462c4f31eed,
            0x3fc516ed0471aa32,
            0x3fb29b69184c4692,
            0x3fa5bf3c6b25e243,
        ],
        val: &[],
        hash: 0x89045c498a8105c9,
    },
    Golden {
        case: "per_graph",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92a86b80a03,
            0x3fb9ec6fc8da6215,
            0x3fa5da2073aa7b62,
            0x3fa77a8825044356,
        ],
        val: &[],
        hash: 0x3c0ea963b291b854,
    },
    Golden {
        case: "packed_f64",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92a86b80a02,
            0x3fb9ec6fc8da6214,
            0x3fa5da2073aa7b5e,
            0x3fa77a8825044355,
        ],
        val: &[],
        hash: 0x8e4debf6aa4f8d7c,
    },
    Golden {
        case: "packed_f32",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92acaaaaaab,
            0x3fb9ec6fc30c30c3,
            0x3fa5da1fc9249249,
            0x3fa77a88edb6db6e,
        ],
        val: &[],
        hash: 0xc89347bdb7a47ef4,
    },
    Golden {
        case: "per_graph_val",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92a86b80a03,
            0x3fb9ec6fc8da6215,
            0x3fa5da2073aa7b62,
            0x3fa77a8825044356,
        ],
        val: &[
            0x3fbc6aff6660bb0e,
            0x3f9fa3bede6bc57a,
            0x3fac34b4b9a9a12a,
            0x3f9afd9c294bc485,
        ],
        hash: 0x3c0ea963b291b854,
    },
    Golden {
        case: "packed_f64_val",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92a86b80a02,
            0x3fb9ec6fc8da6214,
            0x3fa5da2073aa7b5e,
            0x3fa77a8825044355,
        ],
        val: &[
            0x3fbc6aff6660bb0b,
            0x3f9fa3bede6bc570,
            0x3fac34b4b9a9a131,
            0x3f9afd9c294bc487,
        ],
        hash: 0x8e4debf6aa4f8d7c,
    },
    Golden {
        case: "packed_f32_val",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9b92acaaaaaab,
            0x3fb9ec6fc30c30c3,
            0x3fa5da1fc9249249,
            0x3fa77a88edb6db6e,
        ],
        val: &[
            0x3fbc6afe3b50509e,
            0x3f9fa3bde1301391,
            0x3fac34b55c5c929d,
            0x3f9afd9d29983f89,
        ],
        hash: 0xc89347bdb7a47ef4,
    },
    Golden {
        case: "per_graph_clip1",
        seed: 8,
        mode: TargetMode::Absolute,
        loss: &[
            0x3fd9db57ef898995,
            0x3fab2d389cd9c228,
            0x3fa41946e11dceb4,
            0x3f9a2c703e4bf106,
        ],
        val: &[],
        hash: 0xeb5556cb53bb9173,
    },
];

fn sample(placement: Vec<Vec<usize>>, rate: f64) -> LabeledGraph {
    let features = ModelConfig::small().feature_mode;
    let devices = vec![
        Device::new(10.0, 1.0).unwrap(),
        Device::new(12.0, 2.0).unwrap(),
        Device::new(8.0, 1.5).unwrap(),
    ];
    let chains = placement
        .iter()
        .enumerate()
        .map(|(c, p)| {
            let frags = (0..p.len())
                .map(|f| Fragment::new(1.0, 0.5 + 0.25 * f as f64).unwrap())
                .collect();
            ServiceChain::new(rate + 0.1 * c as f64, frags).unwrap()
        })
        .collect();
    let model = SystemModel::new(devices, chains, Placement::new(placement)).unwrap();
    let graph = PlacementGraph::from_model(&model, features);
    let targets = graph
        .chains
        .iter()
        .map(|c| ChainTargets {
            throughput: c.arrival_rate * (1.0 - 0.3 * c.arrival_rate),
            latency: c.total_processing * (1.2 + c.arrival_rate),
        })
        .collect();
    LabeledGraph { graph, targets }
}

/// Mixed chain counts, lengths and device usage, so packed batches pad.
fn dataset(n: usize, offset: usize) -> Vec<LabeledGraph> {
    let shapes: [Vec<Vec<usize>>; 4] = [
        vec![vec![0, 1]],
        vec![vec![0, 1], vec![2, 0, 1]],
        vec![vec![2, 2, 1]],
        vec![vec![1], vec![0, 2], vec![1, 0]],
    ];
    (0..n)
        .map(|s| {
            let k = s + offset;
            sample(shapes[k % 4].clone(), 0.2 + 0.05 * (k % 7) as f64)
        })
        .collect()
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 4,
        learning_rate: 5e-3,
        lr_decay: 0.5,
        lr_decay_period: 2,
        seed,
    }
}

fn param_hash(model: &ChainNet) -> u64 {
    let p = model.params();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in p.ids() {
        for v in p.value(id).data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn case_name(kind: StepKind) -> &'static str {
    match kind {
        StepKind::PerGraph => "per_graph",
        StepKind::PackedF64 => "packed_f64",
        StepKind::PackedF32 => "packed_f32",
    }
}

fn assert_golden(case: &str, seed: u64, mode: TargetMode, report: &TrainReport, model: &ChainNet) {
    let g = GOLDEN
        .iter()
        .find(|g| g.case == case && g.seed == seed && g.mode == mode)
        .unwrap_or_else(|| panic!("no golden row {case}/{seed}/{mode:?}"));
    let loss: Vec<u64> = report
        .history
        .iter()
        .map(|e| e.train_loss.to_bits())
        .collect();
    let val: Vec<u64> = report
        .history
        .iter()
        .filter_map(|e| e.val_loss.map(f64::to_bits))
        .collect();
    assert_eq!(loss, g.loss, "{case}/{seed}/{mode:?}: train loss bits");
    assert_eq!(val, g.val, "{case}/{seed}/{mode:?}: validation loss bits");
    assert_eq!(
        param_hash(model),
        g.hash,
        "{case}/{seed}/{mode:?}: parameter hash"
    );
}

fn fit(
    trainer: &Trainer,
    kind: StepKind,
    model: &mut ChainNet,
    train: &[LabeledGraph],
    val: Option<&[LabeledGraph]>,
    plan: &TrainPlan<'_>,
) -> Result<TrainReport, TrainError> {
    let obs = Obs::disabled();
    match kind {
        StepKind::PerGraph => trainer.fit(PerGraph::new(model), train, val, plan, &obs),
        StepKind::PackedF64 => trainer.fit(Packed::<f64>::new(model), train, val, plan, &obs),
        StepKind::PackedF32 => trainer.fit(Packed::<f32>::new(model), train, val, plan, &obs),
    }
}

/// A fresh checkpoint directory for one run.
fn store(tag: &str) -> CkptStore {
    let dir = std::env::temp_dir().join(format!("chainnet-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CkptStore::open(&dir, "train", TRAIN_CKPT_SCHEMA).unwrap()
}

#[test]
fn wrappers_reproduce_the_golden_trajectories() {
    let train = dataset(12, 0);
    let val = dataset(4, 5);
    for mode in MODES {
        let cfg = ModelConfig::small().with_target_mode(mode);
        for seed in SEEDS {
            let t = Trainer::new(config(seed));
            for (suffix, v) in [("", None), ("_val", Some(&val[..]))] {
                let mut m = ChainNet::new(cfg, seed);
                let r = t.train(&mut m, &train, v);
                assert_golden(&format!("per_graph{suffix}"), seed, mode, &r, &m);
                let mut m = ChainNet::new(cfg, seed);
                let r = t.train_batched::<f64>(&mut m, &train, v, &Obs::disabled());
                assert_golden(&format!("packed_f64{suffix}"), seed, mode, &r, &m);
                let mut m = ChainNet::new(cfg, seed);
                let r = t.train_batched::<f32>(&mut m, &train, v, &Obs::disabled());
                assert_golden(&format!("packed_f32{suffix}"), seed, mode, &r, &m);
            }
        }
    }
}

#[test]
fn fit_reproduces_every_step_kind_with_checkpoints_off_and_on() {
    let train = dataset(12, 0);
    let val = dataset(4, 5);
    let unclipped = GuardConfig {
        max_grad_norm: 0.0,
        max_trips: 3,
    };
    for mode in MODES {
        let cfg = ModelConfig::small().with_target_mode(mode);
        for seed in SEEDS {
            let t = Trainer::new(config(seed));
            for kind in KINDS {
                for guard in [None, Some(unclipped)] {
                    for (suffix, v) in [("", None), ("_val", Some(&val[..]))] {
                        let case = format!("{}{suffix}", case_name(kind));
                        let mut m = ChainNet::new(cfg, seed);
                        let plan = TrainPlan {
                            guard,
                            checkpoint: None,
                        };
                        let r = fit(&t, kind, &mut m, &train, v, &plan).unwrap();
                        assert_golden(&case, seed, mode, &r, &m);

                        let s = store(&format!("{case}-{seed}-{mode:?}-{}", guard.is_some()));
                        let mut m = ChainNet::new(cfg, seed);
                        let plan = TrainPlan {
                            guard,
                            checkpoint: Some(CheckpointPlan {
                                store: &s,
                                every: 1,
                                resume: false,
                            }),
                        };
                        let r = fit(&t, kind, &mut m, &train, v, &plan).unwrap();
                        assert_golden(&case, seed, mode, &r, &m);
                        assert_eq!(s.list().unwrap(), vec![1, 2, 3, 4]);
                        let _ = std::fs::remove_dir_all(s.dir());
                    }
                }
            }
        }
    }
}

#[test]
fn clipped_guard_reproduces_its_golden_and_actually_clips() {
    let train = dataset(12, 0);
    let clip = GuardConfig {
        max_grad_norm: 1.0,
        max_trips: 3,
    };
    let cfg = ModelConfig::small().with_target_mode(TargetMode::Absolute);
    for seed in SEEDS {
        let t = Trainer::new(config(seed));
        for checkpointed in [false, true] {
            let s = store(&format!("clip-{seed}"));
            let plan = TrainPlan {
                guard: Some(clip),
                checkpoint: checkpointed.then_some(CheckpointPlan {
                    store: &s,
                    every: 2,
                    resume: false,
                }),
            };
            let obs = Obs::enabled();
            let mut m = ChainNet::new(cfg, seed);
            let r = t
                .fit(PerGraph::new(&mut m), &train, None, &plan, &obs)
                .unwrap();
            assert_golden("per_graph_clip1", seed, TargetMode::Absolute, &r, &m);
            // Pre-clip norms above the threshold were observed, so the
            // clip scaled at least one step.
            let h = &obs.registry.snapshot().histograms["train.grad_norm"];
            let above_one: u64 = h.counts[3..].iter().sum();
            assert!(above_one > 0, "seed {seed}: the clip never engaged");
            let _ = std::fs::remove_dir_all(s.dir());
        }
    }
}
