//! Reproducibility guarantees across the whole stack: identical seeds
//! must give bit-identical datasets, models and training runs — the
//! property that makes every experiment in EXPERIMENTS.md rerunnable.
//! Search determinism is pinned by the placement crate's SA trajectory
//! golden.

use chainnet_suite::core::config::{ModelConfig, TrainConfig};
use chainnet_suite::core::model::{ChainNet, Surrogate};
use chainnet_suite::core::train::Trainer;
use chainnet_suite::datagen::dataset::{generate_raw_dataset, to_labeled, DatasetConfig};
use chainnet_suite::datagen::typesets::NetworkParams;

fn tiny_config() -> ModelConfig {
    let mut cfg = ModelConfig::small();
    cfg.hidden = 8;
    cfg.iterations = 2;
    cfg
}

#[test]
fn model_initialization_is_seed_deterministic() {
    let a = ChainNet::new(tiny_config(), 42);
    let b = ChainNet::new(tiny_config(), 42);
    assert_eq!(a.params().to_json().unwrap(), b.params().to_json().unwrap());
    let c = ChainNet::new(tiny_config(), 43);
    assert_ne!(a.params().to_json().unwrap(), c.params().to_json().unwrap());
}

#[test]
fn full_training_run_is_deterministic() {
    let raw = generate_raw_dataset(
        NetworkParams::type_i(),
        &DatasetConfig::new(10, 7).with_horizon(200.0),
    )
    .unwrap();
    let data = to_labeled(&raw, tiny_config().feature_mode);
    let train_once = || {
        let mut model = ChainNet::new(tiny_config(), 9);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 4,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            lr_decay_period: 10,
            seed: 5,
        });
        let report = trainer.train(&mut model, &data, None);
        (
            model.params().to_json().unwrap(),
            report.final_train_loss().unwrap(),
        )
    };
    let (w1, l1) = train_once();
    let (w2, l2) = train_once();
    assert_eq!(w1, w2, "weights must match bit for bit");
    assert_eq!(l1, l2);
}

#[test]
fn trained_model_serialization_preserves_behavior() {
    let raw = generate_raw_dataset(
        NetworkParams::type_i(),
        &DatasetConfig::new(8, 17).with_horizon(200.0),
    )
    .unwrap();
    let data = to_labeled(&raw, tiny_config().feature_mode);
    let mut model = ChainNet::new(tiny_config(), 1);
    Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 4,
        learning_rate: 1e-3,
        lr_decay: 0.9,
        lr_decay_period: 10,
        seed: 0,
    })
    .train(&mut model, &data, None);
    let json = serde_json::to_string(&model).unwrap();
    let restored: ChainNet = serde_json::from_str(&json).unwrap();
    for sample in &data {
        assert_eq!(
            model.predict(&sample.graph),
            restored.predict(&sample.graph)
        );
    }
}

#[test]
fn dataset_generation_is_seed_deterministic_end_to_end() {
    let cfg = DatasetConfig::new(6, 99).with_horizon(150.0);
    let a = generate_raw_dataset(NetworkParams::type_ii(), &cfg).unwrap();
    let b = generate_raw_dataset(NetworkParams::type_ii(), &cfg).unwrap();
    assert_eq!(a, b);
    let shifted = DatasetConfig::new(6, 100).with_horizon(150.0);
    let c = generate_raw_dataset(NetworkParams::type_ii(), &shifted).unwrap();
    assert_ne!(a, c);
}
