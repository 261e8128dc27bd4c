//! The wire's number contract: a served request frame carries each `f32`
//! pixel as its shortest round-trip text, and every finite `f32` comes
//! back from JSON bit for bit, so a verdict never depends on the encoding.

use mvml_serve::tenant::eval_dataset;
use mvml_serve::{read_frame, write_frame, ModelSpec, Request, TenantConfig};

/// One real 1×32×32 sign image from a benchmark-sized tenant.
#[allow(clippy::expect_used)] // test harness
fn sample_pixels() -> (Vec<usize>, Vec<f32>) {
    let cfg = TenantConfig {
        model: ModelSpec::Trained {
            classes: 43,
            image_size: 32,
            train_samples: 16,
            epochs: 1,
            seed: 11,
        },
        ..TenantConfig::passthrough("cam-front", 43)
    };
    let data = eval_dataset(&cfg, 4, 0x5EED).expect("a trained tenant has evaluation data");
    let (x, _) = data.batch(&[2]);
    (data.sample_shape().to_vec(), x.as_slice().to_vec())
}

#[allow(clippy::expect_used)] // test harness
fn round_trip(x: f32) -> f32 {
    let json = serde_json::to_string(&x).expect("encode");
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("decode {json}: {e}"))
}

#[test]
fn classify_frame_is_compact_and_bit_exact() {
    let (shape, pixels) = sample_pixels();
    assert_eq!(shape, [1, 32, 32]);
    let request = Request::Classify {
        tenant: "cam-front".to_string(),
        id: 7,
        shape,
        pixels: pixels.clone(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &request).expect("write frame");
    let body = wire.len() - 4;
    assert!(
        body <= 12 * 1024,
        "a 32×32 Classify frame took {body} bytes"
    );
    let back: Request = read_frame(&mut wire.as_slice())
        .expect("read frame")
        .expect("one frame");
    let Request::Classify {
        pixels: decoded, ..
    } = &back
    else {
        panic!("decoded {back:?}");
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(decoded), bits(&pixels));
    assert_eq!(back, request);
}

#[test]
fn edge_and_strided_f32_values_round_trip_bit_for_bit() {
    let edges = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        // The one magnitude whose shortest text rounds twice through an
        // f64 parse.
        f32::from_bits(0x15AE_43FD),
        f32::from_bits(0x95AE_43FD),
    ];
    for x in edges {
        assert_eq!(round_trip(x).to_bits(), x.to_bits(), "{x:e}");
    }
    // A prime stride over every bit pattern: > 1M values, all exponents.
    let mut checked = 0usize;
    for bits in (0..=u32::MAX).step_by(4093) {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            assert_eq!(round_trip(x).to_bits(), bits, "{x:e}");
            checked += 1;
        }
    }
    assert!(checked > 1_000_000, "{checked}");
}

#[test]
fn non_finite_f32_serializes_as_null() {
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert_eq!(serde_json::to_string(&x).expect("encode"), "null");
    }
    assert_eq!(
        serde_json::to_string(&vec![1.0f32, f32::NAN]).expect("encode"),
        "[1.0,null]"
    );
}
