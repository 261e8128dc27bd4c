//! Per-model and per-layer forward timing, shared by the serving and
//! driving workloads.

use crate::trace::{Name, Tracer};
use mvml_nn::layer::Layer;
use mvml_nn::{Sequential, Tensor};

/// Layer kinds timed individually; the rest (activations, pooling,
/// reshapes) fall into the model's `other` row.
const TIMED_KINDS: [&str; 3] = ["conv2d", "dense", "residual"];

/// Span names and metric names of one model.
pub struct ModelNames {
    /// Metric stem, e.g. `yolomini_s`.
    pub stem: String,
    /// Root span of one forward.
    pub root: Name,
    /// Per layer: the span name when the layer is timed individually.
    pub layers: Vec<Option<(Name, String)>>,
}

impl ModelNames {
    /// Names for `model`, derived from its layer stack.
    pub fn new(t: &Tracer, model: &Sequential) -> Self {
        let stem = model.model_name().replace('-', "_");
        let layers = model
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                TIMED_KINDS.contains(&layer.name()).then(|| {
                    let metric = format!("nn.layer.{stem}.{i}_{}_us", layer.name());
                    (t.name(metric.trim_end_matches("_us")), metric)
                })
            })
            .collect();
        ModelNames {
            root: t.name(&format!("nn.model.{stem}")),
            stem,
            layers,
        }
    }
}

/// Runs one forward of `model` on `x` as its own op, layer by layer
/// exactly as `Sequential::forward` does, with a span per timed layer.
/// Returns the multiply-accumulates of the forward.
pub fn forward_traced(t: &Tracer, names: &ModelNames, model: &mut Sequential, x: &Tensor) -> u64 {
    let macs = model.macs(x.shape());
    let root = t.begin(names.root);
    let mut cur = x.clone();
    for (layer, name) in model.layers_mut().iter_mut().zip(&names.layers) {
        cur = match name {
            Some((name, _)) => t.time(root, *name, || layer.forward(&cur, false)),
            None => layer.forward(&cur, false),
        };
    }
    t.end(root);
    std::hint::black_box(cur);
    macs
}

/// The per-op metrics of one model: `nn.model.<stem>_us` and `_macs`,
/// one `nn.layer.<stem>.<idx>_<kind>_us` per timed layer, and
/// `nn.layer.<stem>.other_us` for the untimed layers, all divided by
/// `ops` (the workload's requests or frames).
pub fn model_metrics(t: &Tracer, names: &ModelNames, macs: u64, ops: u64) -> Vec<(String, f64)> {
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let root = t.agg(names.root);
    let mut out = vec![
        (format!("nn.model.{}_us", names.stem), per_op(root.total_ns)),
        (
            format!("nn.model.{}_macs", names.stem),
            macs as f64 / ops.max(1) as f64,
        ),
        (
            format!("nn.layer.{}.other_us", names.stem),
            per_op(root.self_ns),
        ),
    ];
    for (name, metric) in names.layers.iter().flatten() {
        out.push((metric.clone(), per_op(t.agg(*name).total_ns)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    /// Every layer metric the six models can produce is declared in
    /// `BENCHMARK.json`, so a traced run never reports an undeclared name.
    #[test]
    fn layer_metrics_of_all_six_models_are_declared() {
        let t = Tracer::new();
        let mut models = mvml_nn::models::three_versions(32, 43, 1);
        models.extend(
            mvml_avsim::detector::VARIANTS
                .iter()
                .map(|(name, channels)| mvml_avsim::detector::yolo_mini(name, *channels, 1)),
        );
        let spec = spec();
        let mut seen = 0;
        for model in &mut models {
            let names = ModelNames::new(&t, model);
            let x = Tensor::zeros(&[1, 1, 32, 32]);
            let macs = forward_traced(&t, &names, model, &x);
            assert!(macs > 0);
            for (metric, value) in model_metrics(&t, &names, macs, 1) {
                assert!(spec.unit(&metric).is_some(), "{metric} is not declared");
                assert!(
                    value > 0.0 || metric.ends_with("other_us"),
                    "{metric} = {value}"
                );
                seen += 1;
            }
        }
        let declared = spec
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("nn."))
            .count();
        assert_eq!(seen, declared, "every declared nn metric is produced");
    }
}
