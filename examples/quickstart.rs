//! Quickstart: assemble a three-version ML system, break a module, watch the
//! voter mask the fault, and rejuvenate the module back to health.
//!
//! Run with: `cargo run --release --example quickstart`
// Demo code: aborting on a broken step is the desired behaviour, so
// unwrap/expect are allowed file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use resilient_perception::faultinject::search_compromise_seed;
use resilient_perception::mvml::{NVersionSystem, Verdict};
use resilient_perception::nn::metrics::{error_set, evaluate_accuracy};
use resilient_perception::nn::models::three_versions;
use resilient_perception::nn::signs::{generate, SignConfig};
use resilient_perception::nn::train::{train_classifier, TrainConfig};

fn main() {
    // 1. A small, easy traffic-sign problem so the example runs in seconds.
    let sign = SignConfig {
        classes: 8,
        noise_std: 0.10,
        occlusion_prob: 0.1,
        ..SignConfig::default()
    };
    let train = generate(&sign, 800, 0);
    let test = generate(&sign, 240, 1);

    // 2. Train three architecturally diverse versions (the paper's
    //    AlexNet / ResNet / LeNet roles).
    println!("training three diverse model versions…");
    let mut models = three_versions(sign.image_size, sign.classes, 38);
    let tc = TrainConfig {
        epochs: 8,
        batch_size: 64,
        lr: 0.08,
        ..TrainConfig::default()
    };
    for m in &mut models {
        let _ = train_classifier(m, &train, &tc);
        let accuracy = evaluate_accuracy(m, &train, tc.batch_size);
        println!("  {:<14} train accuracy {:.3}", m.model_name(), accuracy);
    }

    // 3. Assemble the N-version system (trusted voter, rules R.1–R.3).
    let mut system = NVersionSystem::new(models);
    let healthy = system.evaluate(&test, 64);
    println!(
        "\nall-healthy system:    reliability {:.3}, coverage {:.3}",
        healthy.reliability(),
        healthy.coverage()
    );

    // 4. Compromise one module with a PyTorchFI-style weight fault — like
    //    the paper, search injection seeds until the fault visibly degrades
    //    the module (most single-weight faults are harmless; the paper's
    //    seeds 5/183/34 were found the same way).
    let mut seeds = Vec::new();
    for i in 0..2 {
        let found = search_compromise_seed(
            system.module_mut(i).model_mut(),
            0,
            -10.0,
            30.0,
            0.10,
            0.75,
            400,
            |m| {
                let e = error_set(m, &test, 64);
                1.0 - e.iter().filter(|&&x| x).count() as f64 / e.len() as f64
            },
        )
        .expect("no degrading seed found");
        seeds.push(found);
    }
    system
        .module_mut(0)
        .compromise(0, -10.0, 30.0, seeds[0].seed);
    let one_bad = system.evaluate(&test, 64);
    println!(
        "one compromised module: reliability {:.3} (module at {:.3} accuracy, fault masked by 2-out-of-3 voting)",
        one_bad.reliability(),
        seeds[0].accuracy
    );

    // 5. Compromise a second module — now wrong majorities and skips appear.
    system
        .module_mut(1)
        .compromise(0, -10.0, 30.0, seeds[1].seed);
    let two_bad = system.evaluate(&test, 64);
    println!(
        "two compromised modules: reliability {:.3}, coverage {:.3} ({} safe skips — \
         wrong majorities become skips, trading coverage for safety)",
        two_bad.reliability(),
        two_bad.coverage(),
        two_bad.skipped
    );

    // 6. Rejuvenate: reload pristine weights ("from a safe memory
    //    location"), returning the system to full health.
    system.module_mut(0).complete_rejuvenation();
    system.module_mut(1).complete_rejuvenation();
    let recovered = system.evaluate(&test, 64);
    println!(
        "after rejuvenation:     reliability {:.3}",
        recovered.reliability()
    );

    // 7. Degraded operation: with one module down the voter runs 2-out-of-2
    //    and safely skips on divergence (R.2).
    system.module_mut(2).fail();
    let degraded = system.evaluate(&test, 64);
    println!(
        "one module crashed:     reliability {:.3}, {} safe skips",
        degraded.reliability(),
        degraded.skipped
    );

    // A healthy batch end-to-end, for good measure.
    system.module_mut(2).complete_rejuvenation();
    let idx: Vec<usize> = (0..10).collect();
    let (x, y) = test.batch(&idx);
    let verdicts = system.classify_batch(&x);
    let correct = verdicts
        .iter()
        .zip(&y)
        .filter(|(v, label)| matches!(v, Verdict::Output(c) if c == *label))
        .count();
    println!("\nfirst 10 test samples: {correct}/10 voted correctly");
}
