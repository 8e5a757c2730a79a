//! Whitted-style ray tracing of animation frames (paper §2.1 and §4.1).
//!
//! The usage example of the paper renders a rotation animation around a 3D
//! scene: each input is a camera angle, each output is the pixel buffer of
//! one frame, and the frames are reassembled in order downstream. This module
//! implements a small recursive ray tracer (spheres, a ground plane, a point
//! light, hard shadows and specular reflections) entirely from scratch.

/// A three-component vector used for points, directions and colours.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;

    fn add(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x + other.x, self.y + other.y, self.z + other.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;

    fn sub(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }
}

/// Component-wise multiplication (used for colours).
impl std::ops::Mul for Vec3 {
    type Output = Vec3;

    fn mul(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x * other.x, self.y * other.y, self.z * other.z)
    }
}

impl Vec3 {
    /// Creates a vector.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Multiplication by a scalar.
    pub fn scale(self, factor: f64) -> Vec3 {
        Vec3::new(self.x * factor, self.y * factor, self.z * factor)
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// The vector scaled to unit length.
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len == 0.0 {
            self
        } else {
            self.scale(1.0 / len)
        }
    }

    /// Reflection of `self` around the normal `n`.
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self - n.scale(2.0 * self.dot(n))
    }
}

/// A ray with an origin and a unit direction.
#[derive(Debug, Clone, Copy)]
pub struct Ray {
    /// Starting point of the ray.
    pub origin: Vec3,
    /// Unit direction of the ray.
    pub direction: Vec3,
}

/// A sphere with Phong-style material parameters.
#[derive(Debug, Clone, Copy)]
pub struct Sphere {
    /// Centre of the sphere.
    pub center: Vec3,
    /// Radius of the sphere.
    pub radius: f64,
    /// Diffuse colour.
    pub color: Vec3,
    /// Fraction of light reflected specularly (0 = matte, 1 = mirror).
    pub reflectivity: f64,
}

impl Sphere {
    /// Distance along `ray` of the closest intersection, if any.
    pub fn intersect(&self, ray: &Ray) -> Option<f64> {
        let oc = ray.origin - self.center;
        let b = 2.0 * oc.dot(ray.direction);
        let c = oc.dot(oc) - self.radius * self.radius;
        solve(b, c)
    }
}

/// The nearest root beyond `1e-6` of `t² + b·t + c = 0`: where a unit-length
/// ray meets a sphere, with `b = 2·oc·d` and `c = oc·oc − r²`.
fn solve(b: f64, c: f64) -> Option<f64> {
    let discriminant = b * b - 4.0 * c;
    if discriminant < 0.0 {
        return None;
    }
    let sqrt_d = discriminant.sqrt();
    let t1 = (-b - sqrt_d) / 2.0;
    let t2 = (-b + sqrt_d) / 2.0;
    let t = if t1 > 1e-6 { t1 } else { t2 };
    (t > 1e-6).then_some(t)
}

/// `v.floor()` without the call into libm: truncate, then step down where
/// truncation rounded up (a negative non-integer). Beyond 2^53 every `f64`
/// is an integer already, and `as i64` would saturate.
fn floor(v: f64) -> f64 {
    if v.abs() < 9.0e15 {
        let truncated = v as i64 as f64;
        if truncated > v {
            truncated - 1.0
        } else {
            truncated
        }
    } else {
        v.floor()
    }
}

/// One colour channel as a byte: `(channel.clamp(0.0, 1.0) * 255.0).round()`
/// without the call into libm. The remainder after truncation is exact, so
/// comparing it with one half rounds exactly as `round` does (half up).
fn quantise(channel: f64) -> u8 {
    let scaled = channel.clamp(0.0, 1.0) * 255.0;
    let truncated = scaled as u8;
    truncated + u8::from(scaled - f64::from(truncated) >= 0.5)
}

/// The scene of the paper's usage example: a handful of spheres on a plane,
/// lit by a single point light, rendered from a camera rotating around it.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The spheres of the scene.
    pub spheres: Vec<Sphere>,
    /// Height of the ground plane (y = `floor_y`).
    pub floor_y: f64,
    /// Position of the point light.
    pub light: Vec3,
    /// Background colour.
    pub background: Vec3,
    /// Maximum recursion depth for reflections.
    pub max_depth: u32,
}

impl Default for Scene {
    fn default() -> Self {
        Self {
            spheres: vec![
                Sphere {
                    center: Vec3::new(0.0, 1.0, 0.0),
                    radius: 1.0,
                    color: Vec3::new(0.9, 0.2, 0.2),
                    reflectivity: 0.4,
                },
                Sphere {
                    center: Vec3::new(2.0, 0.6, 1.0),
                    radius: 0.6,
                    color: Vec3::new(0.2, 0.8, 0.3),
                    reflectivity: 0.2,
                },
                Sphere {
                    center: Vec3::new(-1.8, 0.8, -0.6),
                    radius: 0.8,
                    color: Vec3::new(0.2, 0.4, 0.9),
                    reflectivity: 0.6,
                },
            ],
            floor_y: 0.0,
            light: Vec3::new(5.0, 8.0, -3.0),
            background: Vec3::new(0.05, 0.07, 0.12),
            max_depth: 3,
        }
    }
}

impl Scene {
    fn trace(&self, ray: &Ray, depth: u32) -> Vec3 {
        let closest = self.closest(self.spheres.iter().map(|sphere| sphere.intersect(ray)));
        self.finish(ray, depth, closest)
    }

    /// The nearest sphere hit, given each sphere's hit distance in order.
    fn closest(&self, hits: impl Iterator<Item = Option<f64>>) -> Option<(f64, &Sphere)> {
        let mut closest: Option<(f64, &Sphere)> = None;
        for (sphere, hit) in self.spheres.iter().zip(hits) {
            if let Some(t) = hit {
                if closest.map(|(best, _)| t < best).unwrap_or(true) {
                    closest = Some((t, sphere));
                }
            }
        }
        closest
    }

    /// The colour `ray` sees, given its `closest` sphere hit: the floor,
    /// shading and reflections. Inlined into `render`'s pixel loop, where
    /// the call cost about a seventh of the frame.
    #[inline(always)]
    fn finish(&self, ray: &Ray, depth: u32, closest: Option<(f64, &Sphere)>) -> Vec3 {
        // Ground plane intersection.
        let floor_t = if ray.direction.y < -1e-6 {
            Some((self.floor_y - ray.origin.y) / ray.direction.y)
        } else {
            None
        };

        match (closest, floor_t) {
            (Some((t, sphere)), floor) if floor.map(|ft| t < ft).unwrap_or(true) => {
                let hit = ray.origin + ray.direction.scale(t);
                let normal = (hit - sphere.center).normalized();
                let mut color = self.shade(hit, normal, sphere.color);
                if sphere.reflectivity > 0.0 && depth < self.max_depth {
                    let reflected = Ray {
                        origin: hit + normal.scale(1e-4),
                        direction: ray.direction.reflect(normal).normalized(),
                    };
                    let bounce = self.trace(&reflected, depth + 1);
                    color =
                        color.scale(1.0 - sphere.reflectivity) + bounce.scale(sphere.reflectivity);
                }
                color
            }
            (_, Some(t)) if t > 1e-6 => {
                let hit = ray.origin + ray.direction.scale(t);
                // Checkerboard floor.
                let checker = ((floor(hit.x) + floor(hit.z)) as i64).rem_euclid(2) == 0;
                let base =
                    if checker { Vec3::new(0.85, 0.85, 0.85) } else { Vec3::new(0.25, 0.25, 0.25) };
                self.shade(hit, Vec3::new(0.0, 1.0, 0.0), base)
            }
            _ => self.background,
        }
    }

    fn shade(&self, hit: Vec3, normal: Vec3, base: Vec3) -> Vec3 {
        let to_light = self.light - hit;
        // `to_light.normalized()`, sharing its square root with `max_t`.
        let max_t = to_light.length();
        let light_dir = if max_t == 0.0 { to_light } else { to_light.scale(1.0 / max_t) };
        // Hard shadow: any sphere between the hit point and the light.
        let shadow_ray = Ray { origin: hit + normal.scale(1e-4), direction: light_dir };
        let in_shadow =
            self.spheres.iter().filter_map(|s| s.intersect(&shadow_ray)).any(|t| t < max_t);
        let ambient = 0.12;
        let diffuse = if in_shadow { 0.0 } else { normal.dot(light_dir).max(0.0) };
        base.scale(ambient + 0.88 * diffuse)
    }

    /// Renders one frame of the rotation animation: the camera orbits the
    /// origin at the given `angle` (radians) and looks at the scene centre.
    ///
    /// The output is an RGB byte buffer of `width * height * 3` bytes, rows
    /// from top to bottom.
    ///
    /// Every primary ray starts at the camera, so each sphere's `oc` and `c`
    /// are computed once per frame, `forward + right·ndc_x` once per column
    /// and `up·ndc_y` once per row, by the expressions a per-pixel trace
    /// evaluates; `Vec3` sums associate left and Rust fuses no multiply-add,
    /// so every pixel is bit-identical to tracing it alone.
    pub fn render(&self, angle: f64, width: usize, height: usize) -> Vec<u8> {
        let distance = 6.0;
        let camera = Vec3::new(distance * angle.cos(), 2.2, distance * angle.sin());
        let target = Vec3::new(0.0, 0.8, 0.0);
        let forward = (target - camera).normalized();
        let right = Vec3::new(forward.z, 0.0, -forward.x).normalized();
        let up = Vec3::new(
            right.y * forward.z - right.z * forward.y,
            right.z * forward.x - right.x * forward.z,
            right.x * forward.y - right.y * forward.x,
        );
        let fov_scale = (55.0f64.to_radians() / 2.0).tan();
        let aspect = width as f64 / height as f64;

        let eye: Vec<(Vec3, f64)> = self
            .spheres
            .iter()
            .map(|sphere| {
                let oc = camera - sphere.center;
                (oc, oc.dot(oc) - sphere.radius * sphere.radius)
            })
            .collect();
        let columns: Vec<Vec3> = (0..width)
            .map(|x| {
                let ndc_x = (2.0 * (x as f64 + 0.5) / width as f64 - 1.0) * fov_scale * aspect;
                forward + right.scale(ndc_x)
            })
            .collect();
        let mut pixels = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            let ndc_y = (1.0 - 2.0 * (y as f64 + 0.5) / height as f64) * fov_scale;
            let row = up.scale(ndc_y);
            for &column in &columns {
                let direction = (column + row).normalized();
                let closest =
                    self.closest(eye.iter().map(|&(oc, c)| solve(2.0 * oc.dot(direction), c)));
                let color = self.finish(&Ray { origin: camera, direction }, 0, closest);
                for channel in [color.x, color.y, color.z] {
                    pixels.push(quantise(channel));
                }
            }
        }
        pixels
    }
}

/// Generates the camera angles of a full-turn animation with `frames` frames,
/// the input stream of the usage example (`generate-angles.js`).
pub fn animation_angles(frames: usize) -> Vec<f64> {
    (0..frames).map(|i| animation_angle(i, frames)).collect()
}

/// The camera angle of frame `i` of a full-turn animation with `frames`
/// frames (zero frames counting as one).
pub(crate) fn animation_angle(i: usize, frames: usize) -> f64 {
    i as f64 * std::f64::consts::TAU / frames.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length(), 5.0);
        assert!((v.normalized().length() - 1.0).abs() < 1e-12);
        assert_eq!(v + Vec3::new(1.0, 1.0, 1.0), Vec3::new(4.0, 5.0, 1.0));
        assert_eq!(v - v, Vec3::default());
        assert_eq!(v.scale(2.0), Vec3::new(6.0, 8.0, 0.0));
        assert_eq!(v.dot(Vec3::new(1.0, 0.0, 0.0)), 3.0);
        assert_eq!(
            Vec3::new(1.0, -1.0, 0.0).reflect(Vec3::new(0.0, 1.0, 0.0)),
            Vec3::new(1.0, 1.0, 0.0)
        );
        assert_eq!(Vec3::default().normalized(), Vec3::default());
    }

    #[test]
    fn sphere_intersection() {
        let sphere = Sphere {
            center: Vec3::new(0.0, 0.0, 5.0),
            radius: 1.0,
            color: Vec3::new(1.0, 0.0, 0.0),
            reflectivity: 0.0,
        };
        let hit = sphere
            .intersect(&Ray { origin: Vec3::default(), direction: Vec3::new(0.0, 0.0, 1.0) })
            .unwrap();
        assert!((hit - 4.0).abs() < 1e-9);
        assert!(sphere
            .intersect(&Ray { origin: Vec3::default(), direction: Vec3::new(0.0, 1.0, 0.0) })
            .is_none());
        // A ray starting inside the sphere hits the far side.
        let inside = sphere
            .intersect(&Ray {
                origin: Vec3::new(0.0, 0.0, 5.0),
                direction: Vec3::new(0.0, 0.0, 1.0),
            })
            .unwrap();
        assert!((inside - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_produces_correct_buffer_size() {
        let scene = Scene::default();
        let frame = scene.render(0.3, 32, 24);
        assert_eq!(frame.len(), 32 * 24 * 3);
    }

    #[test]
    fn rendering_is_deterministic() {
        let scene = Scene::default();
        assert_eq!(scene.render(1.0, 16, 16), scene.render(1.0, 16, 16));
    }

    /// Pins every pixel of the benchmark's frame size over the default
    /// animation: a change to the arithmetic of `render` must leave the
    /// frames bit-identical (FNV-1a over all sixty frames, in order).
    #[test]
    fn default_animation_frames_are_pinned() {
        let scene = Scene::default();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for angle in animation_angles(60) {
            for byte in scene.render(angle, 96, 72) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0x2761_346e_b09c_c760, "{digest:#018x}");
    }

    /// `render` as one `trace` per pixel from the camera, with the camera
    /// arithmetic written out per pixel: the reference the hoisted primary
    /// rays must match byte for byte.
    fn render_per_pixel(scene: &Scene, angle: f64, width: usize, height: usize) -> Vec<u8> {
        let distance = 6.0;
        let camera = Vec3::new(distance * angle.cos(), 2.2, distance * angle.sin());
        let target = Vec3::new(0.0, 0.8, 0.0);
        let forward = (target - camera).normalized();
        let right = Vec3::new(forward.z, 0.0, -forward.x).normalized();
        let up = Vec3::new(
            right.y * forward.z - right.z * forward.y,
            right.z * forward.x - right.x * forward.z,
            right.x * forward.y - right.y * forward.x,
        );
        let fov_scale = (55.0f64.to_radians() / 2.0).tan();
        let aspect = width as f64 / height as f64;

        let mut pixels = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            for x in 0..width {
                let ndc_x = (2.0 * (x as f64 + 0.5) / width as f64 - 1.0) * fov_scale * aspect;
                let ndc_y = (1.0 - 2.0 * (y as f64 + 0.5) / height as f64) * fov_scale;
                let direction = (forward + right.scale(ndc_x) + up.scale(ndc_y)).normalized();
                let color = scene.trace(&Ray { origin: camera, direction }, 0);
                pixels.extend([color.x, color.y, color.z].map(quantise));
            }
        }
        pixels
    }

    /// Scenes the pinned default animation does not cover: a camera inside
    /// a sphere (primary rays take the far root), matte spheres, no
    /// reflections at all, and no spheres.
    #[test]
    fn hoisted_primary_rays_match_a_per_pixel_trace() {
        let mut around_the_orbit = Scene::default();
        // The camera orbits at radius 6 and height 2.2: this sphere holds
        // the whole orbit.
        around_the_orbit.spheres.push(Sphere {
            center: Vec3::new(0.0, 2.2, 0.0),
            radius: 6.5,
            color: Vec3::new(0.6, 0.6, 0.3),
            reflectivity: 0.3,
        });
        let mut matte = Scene::default();
        for sphere in &mut matte.spheres {
            sphere.reflectivity = 0.0;
        }
        let flat = Scene { max_depth: 0, ..Scene::default() };
        let empty = Scene { spheres: Vec::new(), ..Scene::default() };
        let scenes = [Scene::default(), around_the_orbit, matte, flat, empty];

        for (index, scene) in scenes.iter().enumerate() {
            for angle in [0.0, 0.9, 2.5, 4.4] {
                for (width, height) in [(1, 1), (7, 5), (96, 72)] {
                    assert_eq!(
                        scene.render(angle, width, height),
                        render_per_pixel(scene, angle, width, height),
                        "scene {index}, angle {angle}, {width}x{height}"
                    );
                }
            }
        }
        // The camera-inside scene does exercise the far root: its frame
        // differs from the same scene without the enclosing sphere.
        assert_ne!(scenes[1].render(0.9, 7, 5), scenes[0].render(0.9, 7, 5));
    }

    #[test]
    fn floor_and_quantise_agree_with_libm() {
        let edges = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, 1e7 + 0.25, -1e7 - 0.25, 9.0e15];
        for v in edges.into_iter().chain([1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY]) {
            assert_eq!(floor(v), v.floor(), "floor({v})");
        }
        assert!(floor(f64::NAN).is_nan());
        for step in 0..=2040 {
            // Every half and quarter step of the byte range, and just off them.
            for channel in [f64::from(step) / 2040.0, f64::from(step) / 2040.0 + 1e-12] {
                let libm = (channel.clamp(0.0, 1.0) * 255.0).round() as u8;
                assert_eq!(quantise(channel), libm, "quantise({channel})");
            }
        }
        assert_eq!((quantise(-3.0), quantise(7.0), quantise(f64::NAN)), (0, 255, 0));
    }

    #[test]
    fn different_angles_give_different_frames() {
        let scene = Scene::default();
        assert_ne!(scene.render(0.0, 24, 24), scene.render(1.5, 24, 24));
    }

    #[test]
    fn frame_is_not_uniform_background() {
        let scene = Scene::default();
        let frame = scene.render(0.7, 32, 32);
        let distinct: std::collections::HashSet<&[u8]> = frame.chunks(3).collect();
        assert!(distinct.len() > 10, "the image must contain objects, shadows and floor");
    }

    #[test]
    fn animation_angles_cover_a_full_turn() {
        let angles = animation_angles(8);
        assert_eq!(angles.len(), 8);
        assert_eq!(angles[0], 0.0);
        assert!(angles[7] < std::f64::consts::TAU);
        assert!(angles.windows(2).all(|w| w[1] > w[0]));
        assert!(animation_angles(0).is_empty());
    }
}
