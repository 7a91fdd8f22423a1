//! Deterministic synthetic video generator.
//!
//! Stands in for the paper's evaluation dataset (NEMO's YouTube videos
//! from the ten most popular categories). Each category preset controls
//! the statistics that matter to recovery and super-resolution:
//!
//! * **motion magnitude** — how far content moves per frame (drives the
//!   optical-flow difficulty and the value of warping over frame reuse);
//! * **texture density** — spatial frequency content (drives SR gains and
//!   codec bitrate-vs-PSNR behaviour);
//! * **novelty rate** — how often brand-new objects enter the scene (the
//!   content that warping fundamentally cannot predict and that the
//!   binary point code's inpainting hint addresses);
//! * **cut interval** — scene cuts, the worst case for any predictor.
//!
//! A scene is a panned, textured background plus a set of moving textured
//! elliptical objects that bounce off the frame edges; new objects spawn
//! at the boundary at the novelty rate. Everything is generated from a
//! seeded deterministic PRNG ([`nerve_rng::DetRng`]), so clips are
//! exactly reproducible.

use crate::frame::Frame;
use nerve_rng::{DetRng, Rng};

/// The ten YouTube categories the paper samples (§8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    ProductReview,
    HowTo,
    Vlogs,
    GamePlay,
    Skit,
    Haul,
    Challenges,
    Favorite,
    Education,
    Unboxing,
}

impl Category {
    pub const ALL: [Category; 10] = [
        Category::ProductReview,
        Category::HowTo,
        Category::Vlogs,
        Category::GamePlay,
        Category::Skit,
        Category::Haul,
        Category::Challenges,
        Category::Favorite,
        Category::Education,
        Category::Unboxing,
    ];

    /// (motion px/frame at 1080p-equivalent scale, texture cycles/frame
    /// width, novelty spawns per 100 frames, cut interval frames).
    /// Public because the model plane sizes specialist-head artifacts and
    /// uplifts from the same statistics the generator is driven by.
    pub fn stats(self) -> (f32, f32, f32, usize) {
        match self {
            // Talking-head-ish, low motion, medium texture.
            Category::ProductReview => (1.0, 6.0, 0.6, 420),
            Category::HowTo => (1.5, 7.0, 0.8, 360),
            Category::Vlogs => (3.0, 6.0, 1.2, 240),
            // Fast panning, high texture, frequent new content.
            Category::GamePlay => (6.0, 12.0, 2.5, 180),
            Category::Skit => (2.5, 7.0, 1.0, 200),
            Category::Haul => (1.8, 8.0, 1.0, 320),
            Category::Challenges => (4.5, 9.0, 2.0, 150),
            Category::Favorite => (1.2, 6.0, 0.7, 380),
            Category::Education => (0.8, 5.0, 0.5, 500),
            Category::Unboxing => (2.0, 8.0, 1.2, 300),
        }
    }
}

/// Configuration of a synthetic scene.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    pub width: usize,
    pub height: usize,
    /// Mean object speed in pixels per frame (at this resolution).
    pub motion: f32,
    /// Texture spatial frequency (cycles across the frame width).
    pub texture_freq: f32,
    /// Expected new-object spawns per 100 frames.
    pub novelty_per_100: f32,
    /// Frames between scene cuts (0 = never).
    pub cut_interval: usize,
    /// Number of objects alive at scene start.
    pub initial_objects: usize,
    /// Camera pan speed in pixels per frame.
    pub pan_speed: f32,
    /// Additive sensor-noise amplitude.
    pub noise: f32,
}

impl SceneConfig {
    /// Category preset at the given output dimensions. Motion scales with
    /// resolution so a clip has the same *relative* motion at any
    /// evaluation scale.
    pub fn preset(category: Category, height: usize, width: usize) -> Self {
        let (motion, texture, novelty, cut) = category.stats();
        let scale = height as f32 / 1080.0;
        Self {
            width,
            height,
            motion: (motion * scale).max(0.3),
            texture_freq: texture,
            novelty_per_100: novelty,
            cut_interval: cut,
            initial_objects: 5,
            pan_speed: (motion * 0.4 * scale).max(0.1),
            noise: 0.008,
        }
    }

    /// A small default scene for unit tests.
    pub fn test_small() -> Self {
        Self::preset(Category::Vlogs, 36, 64)
    }
}

#[derive(Debug, Clone)]
struct SceneObject {
    x: f32,
    y: f32,
    vx: f32,
    vy: f32,
    rx: f32,
    ry: f32,
    /// Texture phase offsets make each object visually distinct.
    phase: f32,
    brightness: f32,
}

/// A deterministic synthetic video source.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    config: SceneConfig,
    rng: DetRng,
    objects: Vec<SceneObject>,
    pan_x: f32,
    pan_y: f32,
    bg_phase: f32,
    frame_index: u64,
}

impl SyntheticVideo {
    pub fn new(config: SceneConfig, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let objects = (0..config.initial_objects)
            .map(|_| Self::spawn_object(&config, &mut rng, false))
            .collect();
        let bg_phase = rng.random_range(0.0..std::f32::consts::TAU);
        Self {
            config,
            rng,
            objects,
            pan_x: 0.0,
            pan_y: 0.0,
            bg_phase,
            frame_index: 0,
        }
    }

    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    fn spawn_object(config: &SceneConfig, rng: &mut DetRng, at_border: bool) -> SceneObject {
        let (w, h) = (config.width as f32, config.height as f32);
        let speed = config.motion * rng.random_range(0.5..1.5);
        let angle = rng.random_range(0.0..std::f32::consts::TAU);
        let (mut x, mut y) = (rng.random_range(0.0..w), rng.random_range(0.0..h));
        if at_border {
            // New content enters from a frame edge, like the paper's
            // "newly emerged content" that warping cannot predict.
            match rng.random_range(0..4u8) {
                0 => x = 0.0,
                1 => x = w - 1.0,
                2 => y = 0.0,
                _ => y = h - 1.0,
            }
        }
        SceneObject {
            x,
            y,
            vx: speed * angle.cos(),
            vy: speed * angle.sin(),
            rx: rng.random_range(w * 0.06..w * 0.18),
            ry: rng.random_range(h * 0.08..h * 0.22),
            phase: rng.random_range(0.0..std::f32::consts::TAU),
            brightness: rng.random_range(0.35..0.95),
        }
    }

    fn cut(&mut self) {
        let n = self.config.initial_objects;
        self.objects = (0..n)
            .map(|_| Self::spawn_object(&self.config, &mut self.rng, false))
            .collect();
        self.bg_phase = self.rng.random_range(0.0..std::f32::consts::TAU);
        self.pan_x = self.rng.random_range(0.0..1000.0);
        self.pan_y = self.rng.random_range(0.0..1000.0);
    }

    /// Advance the scene one step and render the next frame.
    pub fn next_frame(&mut self) -> Frame {
        if self.config.cut_interval > 0
            && self.frame_index > 0
            && self
                .frame_index
                .is_multiple_of(self.config.cut_interval as u64)
        {
            self.cut();
        }

        // Move objects, bounce off edges.
        let (w, h) = (self.config.width as f32, self.config.height as f32);
        for obj in &mut self.objects {
            obj.x += obj.vx;
            obj.y += obj.vy;
            if obj.x < -obj.rx || obj.x > w + obj.rx {
                obj.vx = -obj.vx;
                obj.x = obj.x.clamp(-obj.rx, w + obj.rx);
            }
            if obj.y < -obj.ry || obj.y > h + obj.ry {
                obj.vy = -obj.vy;
                obj.y = obj.y.clamp(-obj.ry, h + obj.ry);
            }
        }

        // Novelty: spawn new content at the border.
        let p_spawn = self.config.novelty_per_100 / 100.0;
        if self.rng.random_range(0.0f32..1.0) < p_spawn {
            let obj = Self::spawn_object(&self.config, &mut self.rng, true);
            self.objects.push(obj);
            // Bound the population so long clips stay comparable.
            if self.objects.len() > self.config.initial_objects * 3 {
                self.objects.remove(0);
            }
        }

        self.pan_x += self.config.pan_speed;
        self.pan_y += self.config.pan_speed * 0.3;

        let frame = self.render();
        self.frame_index += 1;
        frame
    }

    /// Generate `n` consecutive frames.
    pub fn take_frames(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    /// Render the current scene state. Every term that depends on one
    /// axis alone is computed once per column or row, not once per
    /// pixel: the background's `sin(freq·u + φ)` and
    /// `cos(2.3·freq·u + 1.7)` per column and `cos(0.8·freq·v)` per row;
    /// each object's texture `sin` and squared normalized offset per
    /// column of its bounding box, and its texture `cos` and squared
    /// offset per row. Each term has the same f32 operands, and each
    /// pixel combines the terms in the same order, so every pixel is
    /// bit-identical to evaluating them per pixel. The diagonal
    /// `sin(3.1·freq·(u + v) + φ)` stays per pixel, because `u + v` is
    /// rounded separately for each pixel.
    fn render(&mut self) -> Frame {
        let cfg = &self.config;
        let fw = cfg.width as f32;
        let freq = cfg.texture_freq * std::f32::consts::TAU / fw;
        let bg_phase = self.bg_phase;
        let (pan_x, pan_y) = (self.pan_x, self.pan_y);

        // Panned multi-band background texture.
        let us: Vec<f32> = (0..cfg.width).map(|x| x as f32 + pan_x).collect();
        let col_sin: Vec<f32> = us.iter().map(|&u| (freq * u + bg_phase).sin()).collect();
        let col_cos: Vec<f32> = us.iter().map(|&u| (freq * 2.3 * u + 1.7).cos()).collect();
        let mut data = Vec::with_capacity(cfg.width * cfg.height);
        for y in 0..cfg.height {
            let v = y as f32 + pan_y;
            let row_cos = (freq * 0.8 * v).cos();
            for x in 0..cfg.width {
                let u = us[x];
                let t = 0.5
                    + 0.16 * col_sin[x] * row_cos
                    + 0.10 * col_cos[x]
                    + 0.07 * (freq * 3.1 * (u + v) + bg_phase).sin();
                data.push(t.clamp(0.02, 0.98));
            }
        }
        let mut frame = Frame::from_data(cfg.width, cfg.height, data);

        // Paint objects back-to-front (insertion order).
        for obj in &self.objects {
            let x0 = ((obj.x - obj.rx).floor().max(0.0)) as usize;
            let x1 = ((obj.x + obj.rx).ceil().min(fw - 1.0)) as usize;
            let y0 = ((obj.y - obj.ry).floor().max(0.0)) as usize;
            let y1 = ((obj.y + obj.ry).ceil().min(cfg.height as f32 - 1.0)) as usize;
            if x0 > x1 {
                continue; // wholly right of the frame
            }
            // Object carries its own texture, moving with it. Per column:
            // the squared normalized offset and the texture's `sin`.
            let cols: Vec<(f32, f32)> = (x0..=x1)
                .map(|x| {
                    let dx = (x as f32 - obj.x) / obj.rx;
                    (dx * dx, ((x as f32 - obj.x) * freq * 2.0 + obj.phase).sin())
                })
                .collect();
            for y in y0..=y1 {
                let dy = (y as f32 - obj.y) / obj.ry;
                let dy2 = dy * dy;
                let tex_cos = ((y as f32 - obj.y) * freq * 1.6).cos();
                let row = &mut frame.data_mut()[y * cfg.width + x0..=y * cfg.width + x1];
                for (p, &(dx2, tex_sin)) in row.iter_mut().zip(&cols) {
                    let d2 = dx2 + dy2;
                    if d2 <= 1.0 {
                        let tex = 0.5 + 0.5 * tex_sin * tex_cos;
                        let edge = (1.0 - d2).sqrt(); // soft shading toward rim
                        let v = obj.brightness * (0.55 + 0.45 * tex) * (0.6 + 0.4 * edge);
                        *p = v.clamp(0.0, 1.0);
                    }
                }
            }
        }

        // Sensor noise.
        if cfg.noise > 0.0 {
            let noise = cfg.noise;
            let rng = &mut self.rng;
            for v in frame.data_mut() {
                *v = (*v + rng.random_range(-noise..noise)).clamp(0.0, 1.0);
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    /// The renderer before its per-axis tables: four trig calls per
    /// background pixel and two per object pixel. The identity tests'
    /// oracle.
    fn render_per_pixel(video: &mut SyntheticVideo) -> Frame {
        let cfg = &video.config;
        let fw = cfg.width as f32;
        let freq = cfg.texture_freq * std::f32::consts::TAU / fw;
        let bg_phase = video.bg_phase;
        let (pan_x, pan_y) = (video.pan_x, video.pan_y);

        let mut frame = Frame::from_fn(cfg.width, cfg.height, |x, y| {
            // Panned multi-band background texture.
            let u = x as f32 + pan_x;
            let v = y as f32 + pan_y;
            let t = 0.5
                + 0.16 * (freq * u + bg_phase).sin() * (freq * 0.8 * v).cos()
                + 0.10 * (freq * 2.3 * u + 1.7).cos()
                + 0.07 * (freq * 3.1 * (u + v) + bg_phase).sin();
            t.clamp(0.02, 0.98)
        });

        // Paint objects back-to-front (insertion order).
        for obj in &video.objects {
            let x0 = ((obj.x - obj.rx).floor().max(0.0)) as usize;
            let x1 = ((obj.x + obj.rx).ceil().min(fw - 1.0)) as usize;
            let y0 = ((obj.y - obj.ry).floor().max(0.0)) as usize;
            let y1 = ((obj.y + obj.ry).ceil().min(cfg.height as f32 - 1.0)) as usize;
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let dx = (x as f32 - obj.x) / obj.rx;
                    let dy = (y as f32 - obj.y) / obj.ry;
                    let d2 = dx * dx + dy * dy;
                    if d2 <= 1.0 {
                        // Object carries its own texture, moving with it.
                        let tex = 0.5
                            + 0.5
                                * ((x as f32 - obj.x) * freq * 2.0 + obj.phase).sin()
                                * ((y as f32 - obj.y) * freq * 1.6).cos();
                        let edge = (1.0 - d2).sqrt(); // soft shading toward rim
                        let v = obj.brightness * (0.55 + 0.45 * tex) * (0.6 + 0.4 * edge);
                        frame.set(x, y, v.clamp(0.0, 1.0));
                    }
                }
            }
        }

        // Sensor noise.
        if cfg.noise > 0.0 {
            let noise = cfg.noise;
            let rng = &mut video.rng;
            for v in frame.data_mut() {
                *v = (*v + rng.random_range(-noise..noise)).clamp(0.0, 1.0);
            }
        }
        frame
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SceneConfig::test_small();
        let mut a = SyntheticVideo::new(cfg.clone(), 42);
        let mut b = SyntheticVideo::new(cfg, 42);
        for _ in 0..5 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SceneConfig::test_small();
        let mut a = SyntheticVideo::new(cfg.clone(), 1);
        let mut b = SyntheticVideo::new(cfg, 2);
        assert_ne!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn frames_are_in_unit_range() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 7);
        for _ in 0..10 {
            let f = v.next_frame();
            assert!(f.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn consecutive_frames_are_similar_but_not_identical() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 3);
        let a = v.next_frame();
        let b = v.next_frame();
        assert_ne!(a, b);
        // Temporal coherence: consecutive frames should be fairly close.
        assert!(psnr(&a, &b) > 15.0, "psnr {}", psnr(&a, &b));
    }

    #[test]
    fn scene_cut_causes_large_change() {
        let mut cfg = SceneConfig::test_small();
        cfg.cut_interval = 5;
        cfg.noise = 0.0;
        let mut v = SyntheticVideo::new(cfg, 11);
        let frames = v.take_frames(8);
        // PSNR across the cut boundary (frame 4 -> 5) should be much lower
        // than within-scene PSNR.
        let within = psnr(&frames[1], &frames[2]);
        let across = psnr(&frames[4], &frames[5]);
        assert!(
            across < within,
            "cut should reduce similarity: within {within}, across {across}"
        );
    }

    #[test]
    fn high_motion_category_changes_more_per_frame() {
        let slow = SceneConfig::preset(Category::Education, 36, 64);
        let fast = SceneConfig::preset(Category::GamePlay, 36, 64);
        let mut sv = SyntheticVideo::new(slow, 5);
        let mut fv = SyntheticVideo::new(fast, 5);
        let (mut ds, mut df) = (0.0, 0.0);
        let mut prev_s = sv.next_frame();
        let mut prev_f = fv.next_frame();
        for _ in 0..8 {
            let s = sv.next_frame();
            let f = fv.next_frame();
            ds += s.mad(&prev_s);
            df += f.mad(&prev_f);
            prev_s = s;
            prev_f = f;
        }
        assert!(
            df > ds,
            "gameplay ({df}) should move more than education ({ds})"
        );
    }

    #[test]
    fn take_frames_returns_requested_count() {
        let mut v = SyntheticVideo::new(SceneConfig::test_small(), 9);
        assert_eq!(v.take_frames(12).len(), 12);
        assert_eq!(v.frame_index(), 12);
    }

    /// Folds `frame`'s bits into a 64-bit FNV-1a hash.
    fn fnv1a(h: u64, frame: &Frame) -> u64 {
        frame.data().iter().fold(h, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// The 64-bit FNV-1a of every frame's bits for every category, at
    /// 240×135 and 640×360 over two seeds. The clips are cut every six
    /// frames and spawn often, and the test checks that each clip passes
    /// a cut and a spawn at the frame edge.
    #[test]
    fn render_is_pinned() {
        let mut got = Vec::new();
        for (w, h) in [(240, 135), (640, 360)] {
            for seed in [5u64, 20261016] {
                let mut fnv = 0xcbf2_9ce4_8422_2325u64;
                for category in Category::ALL {
                    let mut cfg = SceneConfig::preset(category, h, w);
                    cfg.cut_interval = 6;
                    cfg.novelty_per_100 = 40.0;
                    let mut v = SyntheticVideo::new(cfg, seed);
                    let mut spawned = false;
                    for _ in 0..9 {
                        let before = v.objects.len();
                        fnv = fnv1a(fnv, &v.next_frame());
                        spawned |= v.objects.len() > before;
                    }
                    assert!(spawned, "{category:?} {w}x{h} seed {seed}: no spawn");
                }
                got.push(fnv);
            }
        }
        let want: [u64; 4] = [
            0x90bd_85cb_d18e_dbaf,
            0x0a5c_6cd2_761e_30b0,
            0x632f_61e4_c140_3e00,
            0x92cd_2a75_a2c0_0262,
        ];
        assert_eq!(got, want, "render fnv {got:#018x?}");
    }

    #[test]
    fn render_matches_the_per_pixel_renderer() {
        for (w, h) in [(7, 5), (64, 36), (106, 60), (240, 135)] {
            for seed in [1u64, 9, 20261016] {
                for category in Category::ALL {
                    let mut cfg = SceneConfig::preset(category, h, w);
                    cfg.cut_interval = 4;
                    cfg.novelty_per_100 = 30.0;
                    let mut v = SyntheticVideo::new(cfg, seed);
                    // Objects wholly off each edge, one straddling a
                    // corner, and one larger than the frame.
                    let (fw, fh) = (w as f32, h as f32);
                    let template = v.objects[0].clone();
                    for (x, y, rx, ry) in [
                        (-30.0, fh / 2.0, 5.0, 4.0),
                        (fw + 30.0, fh / 2.0, 5.0, 4.0),
                        (fw / 2.0, -30.0, 5.0, 4.0),
                        (fw / 2.0, fh + 30.0, 5.0, 4.0),
                        (-2.0, fh + 1.5, 6.0, 6.0),
                        (fw / 2.0, fh / 2.0, fw, fh),
                    ] {
                        v.objects.push(SceneObject {
                            x,
                            y,
                            rx,
                            ry,
                            vx: 0.0,
                            vy: 0.0,
                            ..template.clone()
                        });
                    }
                    for _ in 0..6 {
                        let mut oracle = v.clone();
                        assert_eq!(
                            v.render(),
                            render_per_pixel(&mut oracle),
                            "{category:?} {w}x{h} seed {seed} frame {}",
                            v.frame_index
                        );
                        v.next_frame();
                    }
                }
            }
        }
    }
}
