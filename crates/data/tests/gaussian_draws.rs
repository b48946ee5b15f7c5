//! The generators that fill their Gaussian draws through
//! `fill_standard_normal` against verbatim copies of the serial loops they
//! replaced: the same values bit for bit, and the rng left at the same
//! point. Sizes cross `NORMAL_CHUNK` and `synth_images`' blocks of
//! `8 · NORMAL_CHUNK` draws.

use fedat_data::synth::{synth_features, synth_images, FeatureSynthSpec, ImageSynthSpec};
use fedat_tensor::rng::{fill_normal, rng_for, standard_normal, uniform, NORMAL_CHUNK};
use rand::{Rng, RngExt};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `synth_images` before its draws were filled in blocks.
fn serial_images<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &ImageSynthSpec,
    n: usize,
) -> (Vec<f32>, Vec<u32>) {
    let feat = spec.channels * spec.height * spec.width;
    let mut templates = Vec::with_capacity(spec.classes);
    for _ in 0..spec.classes {
        let mut t = vec![0.0f32; feat];
        for c in 0..spec.channels {
            for _mode in 0..3 {
                let fy = uniform(rng, 0.5, 2.5);
                let fx = uniform(rng, 0.5, 2.5);
                let py = uniform(rng, 0.0, std::f64::consts::TAU);
                let px = uniform(rng, 0.0, std::f64::consts::TAU);
                let amp = uniform(rng, 0.4, 1.0) as f32;
                for y in 0..spec.height {
                    for x in 0..spec.width {
                        let v = ((fy * y as f64 / spec.height as f64 * std::f64::consts::TAU + py)
                            .sin()
                            * (fx * x as f64 / spec.width as f64 * std::f64::consts::TAU + px)
                                .cos()) as f32;
                        t[c * spec.height * spec.width + y * spec.width + x] += amp * v;
                    }
                }
            }
        }
        templates.push(t);
    }

    let mut xs = Vec::with_capacity(n * feat);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % spec.classes; // balanced classes
        let template = &templates[class];
        // Small per-sample global shift/gain mimics exposure variation.
        let gain = 1.0 + 0.1 * standard_normal(rng);
        for &tv in template.iter() {
            xs.push(spec.signal * gain * tv + spec.noise * standard_normal(rng));
        }
        ys.push(class as u32);
    }
    (xs, ys)
}

/// `synth_features` before its draws were filled in place.
fn serial_features<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &FeatureSynthSpec,
    n: usize,
) -> (Vec<f32>, Vec<u32>) {
    let mut means = Vec::with_capacity(spec.classes);
    for _ in 0..spec.classes {
        let mut m = vec![0.0f32; spec.features];
        for v in m.iter_mut() {
            *v = spec.separation * standard_normal(rng);
        }
        means.push(m);
    }
    let mut xs = Vec::with_capacity(n * spec.features);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % spec.classes;
        for &mv in &means[class] {
            xs.push(mv + spec.noise * standard_normal(rng));
        }
        ys.push(class as u32);
    }
    (xs, ys)
}

/// `fill_normal` before it filled through `fill_standard_normal`.
fn serial_fill_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], mean: f32, std: f32) {
    for v in out.iter_mut() {
        *v = mean + std * standard_normal(rng);
    }
}

#[test]
fn synth_images_is_the_serial_loop() {
    // (channels, height, width, n): a block of several samples with a
    // partial last block, one sample per block (more draws than a block
    // holds), and a set smaller than one chunk.
    let block = 8 * NORMAL_CHUNK;
    let shapes = [
        (1, 8, 8, 2 * block / 65 + 7),
        (3, 5, 7, block / 106 + 1),
        (1, 190, 190, 3),
        (1, 4, 4, 11),
    ];
    for (seed, (channels, height, width, n)) in shapes.into_iter().enumerate() {
        let spec = ImageSynthSpec {
            channels,
            height,
            width,
            classes: 10,
            signal: 1.0,
            noise: 1.2,
        };
        let mut serial = rng_for(seed as u64, 3);
        let (xs, ys) = serial_images(&mut serial, &spec, n);
        let mut filled = rng_for(seed as u64, 3);
        let d = synth_images(&mut filled, &spec, n);
        assert!(
            bits(d.x.data()) == bits(&xs),
            "{channels}x{height}x{width} n={n}: pixels differ"
        );
        assert_eq!(d.y, ys);
        assert_eq!(filled.random::<u64>(), serial.random::<u64>());
    }
}

#[test]
fn synth_features_is_the_serial_loop() {
    // (features, classes, n): the benchmark's two shapes past several
    // chunks, a set smaller than one chunk, and class means that cross one.
    let shapes = [(32, 10, 1_000), (64, 62, 300), (7, 3, 5), (5_000, 3, 4)];
    for (seed, (features, classes, n)) in shapes.into_iter().enumerate() {
        let spec = FeatureSynthSpec {
            features,
            classes,
            separation: 0.8,
            noise: 1.0,
        };
        let mut serial = rng_for(seed as u64, 4);
        let (xs, ys) = serial_features(&mut serial, &spec, n);
        let mut filled = rng_for(seed as u64, 4);
        let d = synth_features(&mut filled, &spec, n);
        assert!(
            bits(d.x.data()) == bits(&xs),
            "{features}x{n}: features differ"
        );
        assert_eq!(d.y, ys);
        assert_eq!(filled.random::<u64>(), serial.random::<u64>());
    }
}

#[test]
fn fill_normal_is_the_serial_loop() {
    for (seed, len) in [
        0,
        1,
        NORMAL_CHUNK - 1,
        NORMAL_CHUNK + 1,
        5 * NORMAL_CHUNK + 3,
    ]
    .into_iter()
    .enumerate()
    {
        let mut serial = rng_for(seed as u64, 5);
        let mut want = vec![0.0f32; len];
        serial_fill_normal(&mut serial, &mut want, 0.5, 0.25);
        let mut filled = rng_for(seed as u64, 5);
        let mut got = vec![0.0f32; len];
        fill_normal(&mut filled, &mut got, 0.5, 0.25);
        assert!(bits(&got) == bits(&want), "fill_normal of {len} differs");
        assert_eq!(filled.random::<u64>(), serial.random::<u64>());
    }
}
